"""Parameters, regime checker, the Sr-88 sets, config."""

from __future__ import annotations

import dataclasses
import math

import mpmath as mp
import pytest

from conftest import CONFIG_DIR
from gravclock import core


def test_z_ratios_two_ways(sr88_10s, sr88_100s):
    for p in (sr88_10s, sr88_100s):
        for stored, e in ((p.z0, p.e0), (p.z1, p.e1)):
            direct = e / (p.m * p.c**2)
            assert stored == pytest.approx(direct, rel=1e-14, abs=0)


def test_z1_value(sr88_10s):
    # 2.8 eV over the Sr-88 rest energy.
    assert sr88_10s.z1 == pytest.approx(4.99e-11, rel=2e-3, abs=0)


def test_params_validation():
    with pytest.raises(core.ParamsError):
        core.build_params(m=-1.0, e0=0.0, e1=0.0, g=9.81, x_plus=1.0,
                          x_minus=0.5, x0=0.7, sigma=1e-4, dt=1.0)
    with pytest.raises(core.ParamsError, match="x_plus"):
        core.build_params(m=1e-25, e0=0.0, e1=0.0, g=9.81, x_plus=0.5,
                          x_minus=1.0, x0=0.7, sigma=1e-4, dt=1.0)
    with pytest.raises(core.ParamsError, match="1e-6"):
        core.build_params(m=1e-30, e0=0.0, e1=2.8 * core.EV, g=9.81,
                          x_plus=1.0, x_minus=0.5, x0=0.7, sigma=1e-4, dt=1.0)


@pytest.mark.parametrize("m", [0.0, -0.0])
def test_params_reject_zero_mass_before_deriving(sr88_10s, m):
    with pytest.raises(core.ParamsError, match="m must be positive"):
        sr88_10s.replace(m=m)


def test_regime_both_presets_pass(sr88_10s, sr88_100s):
    assert core.check_regime(sr88_10s).satisfied
    assert core.check_regime(sr88_100s).satisfied


def test_regime_sigma_equal_h_fails_exactly_that_entry(sr88_10s):
    bad = sr88_10s.replace(sigma=sr88_10s.h)
    report = core.check_regime(bad)
    assert not report.satisfied
    assert report.failing() == ("sigma_below_separation",)
    (entry,) = (e for e in report.entries if e.name == "sigma_below_separation")
    assert entry.ratio >= 0.1


def test_regime_fails_each_ratio_above_one_tenth(sr88_10s):
    """The three entries above 5e-3 on the baseline (sigma/h 1e-2, diffraction
    1.05e-2, Taylor offsets 1.5e-2) fail at 0.1 on a 0.5 mm separation, where
    they read 0.2, 0.21 and 0.375, and they alone."""
    above = tuple(e.name for e in core.check_regime(sr88_10s).entries if e.ratio > 5e-3)
    assert above == ("sigma_below_separation", "sigma_above_diffraction", "taylor_offsets_small")
    close = sr88_10s.replace(x_plus=0.5005, x0=0.50025, x_plus0=0.5005 - 1.5e-4)
    assert core.check_regime(close).failing() == above


def test_regime_ratios_positive_finite(sr88_10s):
    for e in core.check_regime(sr88_10s).entries:
        assert e.ratio >= 0.0 and math.isfinite(e.ratio)


def test_preset_values(sr88_10s, sr88_100s):
    assert sr88_10s.m == 1e-25
    assert sr88_10s.e1 == pytest.approx(4.486094575e-19, rel=1e-9, abs=0)
    assert sr88_10s.dt == 10.0 and sr88_10s.sigma == 1e-4
    assert sr88_10s.h == pytest.approx(1e-2)
    assert sr88_100s.dt == 100.0 and sr88_100s.sigma == 1e-3


def test_ablation_zeroes_coupling_only(sr88_10s):
    p = sr88_10s.replace(ablate_time_dilation=True)
    assert p.z1_eff == 0.0 and p.z0_eff == 0.0
    assert p.z1 == sr88_10s.z1          # raw ratio untouched
    assert p.e1 - p.e0 == sr88_10s.e1 - sr88_10s.e0


def test_config_roundtrip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# comment\n"
        "physics.m_kg = 2e-25\n"
        "physics.E1_eV = 1.4\n"
        "geometry.sigma_m = 2e-4\n"
        "time.dt_s = 3.0\n"
        "phase.phi_rad = 0.5\n"
    )
    p = core.params_from_config(core.load_config(path))
    assert p.m == 2e-25
    assert p.e1 == pytest.approx(1.4 * core.EV, rel=1e-6, abs=0)
    assert p.sigma == 2e-4 and p.dt == 3.0 and p.phi == 0.5


def test_config_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("physics.mass = 1\n")
    with pytest.raises(core.ConfigError, match="line 1.*physics.mass"):
        core.load_config(path)


def test_config_bad_number(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("time.dt_s = ten\n")
    with pytest.raises(core.ConfigError, match="line 1"):
        core.load_config(path)


@pytest.mark.parametrize("line", ["time.dt_s = nan", "physics.g = inf",
                                  "geometry.sigma_m = -inf"])
def test_config_non_finite_number(tmp_path, line):
    path = tmp_path / "c.cfg"
    path.write_text(line + "\n")
    with pytest.raises(core.ConfigError, match="line 1.*finite"):
        core.load_config(path)


def test_params_reject_non_finite(sr88_10s):
    with pytest.raises(core.ParamsError, match="finite: dt"):
        sr88_10s.replace(dt=math.nan)
    with pytest.raises(core.ParamsError, match="finite: g$"):
        sr88_10s.replace(g=math.inf)


def test_replace_matches_dataclasses_replace(sr88_10s):
    changes = dict(dt=12.5, e0=0.1 * core.EV, ablate_time_dilation=True)
    got = sr88_10s.replace(**changes)
    assert got == dataclasses.replace(sr88_10s, **changes)
    assert vars(got) == vars(dataclasses.replace(sr88_10s, **changes))
    assert sr88_10s.dt == 10.0        # the original is untouched
    with pytest.raises(TypeError, match="z0"):
        sr88_10s.replace(z0=1e-9)     # derived, recomputed from e0
    with pytest.raises(core.ParamsError, match="x_plus must exceed"):
        sr88_10s.replace(x_plus=0.4)


def test_delta_v_mz_exact_against_mpmath():
    """The Mach-Zehnder anchors are the potential measured from its value at x0,
    g (x_pm0 - x0), so their difference keeps its digits: anchored on a
    -6.25e7 m^2/s^2 offset it lost 8.5e-8 of its value to cancellation."""
    p = core.params_from_config(core.load_config(CONFIG_DIR / "sr88_mz.cfg"))
    f = mp.mpf
    with mp.workdps(40):
        exact = f(p.g_plus) * (f(p.x_plus) - f(p.x_plus0)) + f(p.g) * (f(p.x_plus0) - f(p.x0)) \
            - f(p.g_minus) * (f(p.x_minus) - f(p.x_minus0)) - f(p.g) * (f(p.x_minus0) - f(p.x0))
        assert abs(p.delta_v_mz / exact - 1) <= 1e-15
