"""Acceptance suite: every exit criterion at its stated tolerance.

Each test evaluates one criterion end to end and prints a PASS line; the
stated runtime budgets are asserted alongside the numerical tolerances.
Criteria that probe terminal power laws evaluate the closed forms in the
self-detected asymptotic window (far beyond the validated regime, which
the sweep interface flags row by row).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from gravclock import bouncer as bc, cli, core, estimation as est, gaussian as ga, oracle as orc
from tests.test_bouncer import _ai_integral_representation, _bisect_series_zero


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_dt6_law(sr88_10s):
    start = time.perf_counter()
    ts = np.geomspace(10.0, 100.0, 20)
    ys = [est.qfi_ff_asymptotic(sr88_10s.replace(dt=float(t))) for t in ts]
    slope_asy, err_asy = cli.fit_scaling(ts, ys)
    slope_closed, _err, window = cli.asymptotic_dt_slope(sr88_10s, est.qfi_ff_closed)
    elapsed = time.perf_counter() - start
    ok = (abs(slope_asy - 6.0) < 1e-3 and err_asy < 1e-3
          and abs(slope_closed - 6.0) < 0.1 and elapsed < 1.0)
    _report(1, f"dt^6 law (asymptotic {slope_asy:.6f}, closed {slope_closed:.3f} "
               f"in window {window}, {elapsed:.2f}s)", ok)


def test_criterion_2_dt4_ablation(sr88_10s, tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "ff.cfg"
    cfg.write_text("scenario.name = free_fall\n")
    rc = cli.main(["sweep", "--config", str(cfg), "--var", "dt",
                   "--from", "10", "--to", "100", "--points", "20", "--log",
                   "--methods", "closed", "--out", str(tmp_path),
                   "--ablate-time-dilation"])
    table = cli.read_table(tmp_path / "sweep.csv")
    ablated = sr88_10s.replace(ablate_time_dilation=True)
    slope, _err, window = cli.asymptotic_dt_slope(ablated, est.qfi_ff_closed)
    elapsed = time.perf_counter() - start
    # The ablated sweep must also differ from the physical one point by point.
    physical = [est.qfi_ff_closed(sr88_10s.replace(dt=t)) for t in table["swept_value"]]
    differs = all(a < p for a, p in zip(table["qfi_closed"], physical))
    ok = (rc == 0 and abs(slope - 4.0) < 0.1 and differs and elapsed < 1.0)
    _report(2, f"dt^4 ablation counterfactual (slope {slope:.3f} in window "
               f"{window}, {elapsed:.2f}s)", ok)


def test_criterion_3_closed_vs_oracle(crosscheck_params):
    start = time.perf_counter()
    worst_ff = 0.0
    for p in crosscheck_params:
        closed = est.qfi_ff_closed(p)
        got = orc.qfi_numeric(est.Scenario("free_fall", p, "g"))
        worst_ff = max(worst_ff, abs(got - closed) / closed)
    worst_mz = 0.0
    for i, p in enumerate(crosscheck_params):
        target = "delta_g" if i % 2 == 0 else "bar_g"
        closed = est.qfi_mz_closed(p, target)
        got = orc.qfi_numeric(est.Scenario("mach_zehnder", p, target))
        worst_mz = max(worst_mz, abs(got - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst_ff < 1e-2 and worst_mz < 1e-2 and elapsed < 300.0
    _report(3, f"closed vs grid oracle on 10+10 regime-valid sets "
               f"(worst ff {worst_ff:.2e}, mz {worst_mz:.2e}, {elapsed:.0f}s)", ok)


def test_criterion_4_reduced_state_collapse(sr88_10s, sr88_100s):
    # Bloch-vector (qubit) QFI against the reduced closed form.
    worst = 0.0
    for p in (sr88_10s, sr88_100s):
        sc = est.Scenario("free_fall", p, "g")
        closed = est.qfi_ff_reduced_closed(p)
        worst = max(worst, abs(est.reduced_qfi_bloch(sc) - closed) / closed)
    # Slope contrast needs a window where the dt^4 spread term leads the
    # full QFI while the reduced beat still sits on its cos^2 plateau:
    # small separation, tight packets, hours-long drops (out of regime,
    # flagged as such by the sweep interface).
    p4 = core.build_params(m=1e-25, e0=0.0, e1=2.8 * core.EV, g=9.81,
                           x_plus=0.500005, x_minus=0.499995, x0=0.5,
                           sigma=8e-7, dt=1e4)
    ts = np.geomspace(1e4, 1e5, 20)
    reduced = [est.qfi_ff_reduced_closed(p4.replace(dt=float(t))) for t in ts]
    full = [est.qfi_ff_closed(p4.replace(dt=float(t))) for t in ts]
    slope_red, _e1 = cli.fit_scaling(ts, reduced)
    slope_full, _e2 = cli.fit_scaling(ts, full)
    bloch_mid = est.reduced_qfi_bloch(est.Scenario("free_fall", p4.replace(dt=3e4), "g"))
    closed_mid = est.qfi_ff_reduced_closed(p4.replace(dt=3e4))
    worst = max(worst, abs(bloch_mid - closed_mid) / closed_mid)
    ok = worst < 1e-2 and abs(slope_red - 2.0) < 0.1 and slope_full >= 4.0
    _report(4, f"reduced-state collapse (bloch worst {worst:.2e}, reduced slope "
               f"{slope_red:.3f}, full slope {slope_full:.5f})", ok)


def test_criterion_5_probabilities_and_fi(sr88_10s, crosscheck_params):
    # Closed form: exact unit sum.  Grid projection: 1e-6.
    sums_exact = []
    worst_grid = 0.0
    for p in (sr88_10s.replace(phi=0.3), crosscheck_params[3]):
        state = ga.evolve_state(ga.make_initial_state(p), p, "free_fall")
        p_plus, p_minus = est.detection_probabilities(state, p)
        sums_exact.append(p_plus + p_minus == 1.0)
        psi = orc.render(state, orc.grid_for_states(state))
        grid_probs = orc.probabilities_numeric(psi, p, "free_fall")
        worst_grid = max(worst_grid, abs(grid_probs[0] - p_plus),
                         abs(grid_probs[1] - p_minus))
    # Analytic two-outcome family: FI = alpha^2 to 1e-6 relative.
    rng = np.random.default_rng(20260811)
    worst_fi = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.5, 12.0)
        lam = rng.uniform(0.15, 2.9)

        c, s = math.cos(alpha * lam), math.sin(alpha * lam)
        got = est.classical_fi((0.5 * (1 + c), 0.5 * (1 - c)), (-0.5 * alpha * s, 0.5 * alpha * s))
        worst_fi = max(worst_fi, abs(got - alpha**2) / alpha**2)
    ok = all(sums_exact) and worst_grid < 1e-6 and worst_fi < 1e-6
    _report(5, f"probability normalization and FI (grid {worst_grid:.2e}, "
               f"fi family worst {worst_fi:.2e})", ok)


def test_criterion_6_mz_null(sr88_10s):
    p_null = sr88_10s.replace(e0=0.0, e1=0.0)
    closed_null = est.qfi_mz_closed(p_null, "bar_g")
    scale = est.qfi_mz_closed(sr88_10s, "bar_g")
    with pytest.warns(UserWarning, match="below fidelity resolution"):
        numeric_null = orc.qfi_numeric(
            est.Scenario("mach_zehnder", p_null, "bar_g"))
    ok = closed_null == 0.0 and abs(numeric_null) < 1e-6 * scale
    _report(6, f"MZ null without internal energies (closed {closed_null}, "
               f"numeric {numeric_null:.2e} vs scale {scale:.2e})", ok)


def test_criterion_7_information_monotonicity(sr88_10s, sr88_100s, crosscheck_params):
    ok = True
    for p in [sr88_10s, sr88_100s, *crosscheck_params]:
        sc = est.Scenario("free_fall", p, "g")
        fi = est.fi_ff_closed(p)
        red_closed = est.qfi_ff_reduced_closed(p)
        bloch = est.reduced_qfi_bloch(sc)
        full = est.qfi_pure_parametric(sc)
        ok &= fi <= red_closed * (1 + 1e-6)
        ok &= bloch <= full * (1 + 1e-2)
        for target in ("delta_g", "bar_g"):
            fi_mz = est.fi_mz_closed(p, target)
            red_mz = est.qfi_mz_reduced_closed(p, target)
            full_mz = est.qfi_mz_closed(p, target)
            ok &= fi_mz <= red_mz * (1 + 1e-6)
            ok &= red_mz <= full_mz * (1 + 1e-6)
    _report(7, "information chain fi <= reduced QFI <= full QFI on every test point", ok)


def test_criterion_8_bouncer_suite(bouncer_params):
    start = time.perf_counter()
    # Airy ODE residual via a 7-point stencil.
    h = 0.02
    weights = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    resid = 0.0
    for y0 in (-10.0, -1.0, 0.0, 1.0, 10.0):
        vals = bc.airy_ai(y0 + np.arange(-3, 4) * h)
        resid = max(resid, abs(float(np.dot(weights, vals)) / h**2
                               - y0 * bc.airy_ai(y0)))
    # First two zeros against the series-bisection oracle.
    z_err = max(abs(bc.airy_zero(1) - _bisect_series_zero(-3.0, -2.0)),
                abs(bc.airy_zero(2) - _bisect_series_zero(-5.0, -4.0)))
    # Orthonormality of the first 20 eigenfunctions by quadrature.
    p = bouncer_params
    spec = bc.bouncer_spectrum(p, 20)
    l0 = spec.lengths[0]
    xs = np.linspace(0.0, l0 * (abs(spec.zeros[-1]) + 12.0), 120_001)
    basis = spec.norms[0][:, None] * bc.airy_ai(xs[None, :] / l0 + spec.zeros[:, None])
    ortho = float(np.max(np.abs(basis @ basis.T * (xs[1] - xs[0]) - np.eye(20))))
    # Projection tail at the automatic level count.
    proj = bc.bouncer_coefficients(p)
    # dt^2 scaling of the closed form over a decade.
    ts = np.geomspace(0.05, 0.5, 10)
    qs = [bc.bouncer_qfi_longtime(p.replace(dt=float(t)), projection=proj) for t in ts]
    slope, _err = cli.fit_scaling(ts, qs)
    # Free fall on the same parameters scales strictly faster.
    ff_slope, _e = cli.fit_scaling(
        ts, [est.qfi_ff_closed(p.replace(dt=float(t))) for t in ts])
    # Grid Bures QFI against the spectral closed form.
    closed = bc.bouncer_qfi_longtime(p)
    numeric = bc.bouncer_qfi_numeric(p)
    rel = abs(numeric - closed) / closed
    elapsed = time.perf_counter() - start
    ok = (resid < 1e-9 and z_err < 1e-10 and ortho < 1e-6 and proj.tail < 1e-3
          and abs(slope - 2.0) < 0.02 and ff_slope > slope
          and rel < 2e-2 and elapsed < 120.0)
    _report(8, f"bouncer spectral suite (residual {resid:.1e}, zeros {z_err:.1e}, "
               f"orthonormality {ortho:.1e}, tail {proj.tail:.1e}, slope {slope:.3f}, "
               f"oracle {rel:.2e}, {elapsed:.0f}s)", ok)


def test_criterion_9_regime_checker(sr88_10s, sr88_100s):
    ok = core.check_regime(sr88_10s).satisfied
    ok &= core.check_regime(sr88_100s).satisfied
    perturbed = core.check_regime(sr88_10s.replace(sigma=sr88_10s.h))
    ok &= perturbed.failing() == ("sigma_below_separation",)
    _report(9, f"regime checker (presets pass; sigma=h fails exactly "
               f"{perturbed.failing()})", ok)
