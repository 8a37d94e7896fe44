"""Shared fixtures: the Sr-88 sets, the bouncer geometry, and the cross-check matrix."""

from __future__ import annotations

from pathlib import Path

import pytest

from gravclock import core

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="session")
def sr88_10s():
    return core.SR88_10S


@pytest.fixture(scope="session")
def sr88_100s():
    # No derived field depends on dt or sigma, so this equals a set built
    # with them from the start, bit for bit.
    return core.SR88_10S.replace(dt=100.0, sigma=1e-3)


@pytest.fixture(scope="session")
def bouncer_params():
    return core.params_from_config(core.load_config(CONFIG_DIR / "bouncer.cfg"))


def _variant(**kw):
    base = dict(
        m=1e-25, e0=0.0, e1=2.8 * core.EV, g=9.81,
        x_plus=0.51, x_minus=0.50, x0=0.505,
        x_plus0=0.51 - 1.5e-4, x_minus0=0.50 - 0.5e-4,
        sigma=1e-4, dt=10.0, phi=0.0,
    )
    base.update(kw)
    return core.build_params(**base)


def crosscheck_matrix() -> list[core.PhysicalParams]:
    """Ten regime-valid free-fall/Mach-Zehnder parameter sets.

    Variations cover mass, clock gap, drop time, geometry (including a
    nonzero potential-reference offset and asymmetric Taylor points) and
    the controllable phase.  Drop times stay at or below ~30 s, inside the
    regime the closed forms assume.
    """
    sets = [
        _variant(),
        _variant(m=0.8e-25, dt=8.0),
        _variant(m=1.5e-25, e1=4.0 * core.EV, dt=12.0),
        _variant(sigma=0.6e-4, dt=5.0, phi=0.7),
        _variant(x_plus=0.520, x_minus=0.500, x0=0.512,
                 x_plus0=0.520 - 2e-4, x_minus0=0.500 + 1e-4, dt=15.0),
        _variant(g=9.50, e1=1.8 * core.EV),
        _variant(x0=0.502, dt=20.0, sigma=1.5e-4),
        _variant(e0=0.4 * core.EV, e1=3.0 * core.EV, dt=25.0, sigma=2e-4),
        _variant(m=1.2e-25, x_plus=0.508, x_minus=0.500, x0=0.504,
                 x_plus0=0.508 - 1e-4, x_minus0=0.500 - 2e-4, phi=1.3),
        _variant(dt=30.0, sigma=3e-4, g=10.2),
    ]
    for i, p in enumerate(sets):
        report = core.check_regime(p)
        assert report.satisfied, (i, report.failing())
    return sets


@pytest.fixture(scope="session")
def crosscheck_params():
    return crosscheck_matrix()
