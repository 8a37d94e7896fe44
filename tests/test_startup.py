"""What a fresh process pays to start: modules loaded and threads started.

Each check runs in its own interpreter, since this one has long since
imported numpy and every gravclock module.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str, **env) -> str:
    """stdout of ``python -c code`` with src on the path and ``env`` set
    (a value of None removes the variable)."""
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       full.get("PYTHONPATH")]))
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    proc = subprocess.run([sys.executable, "-c", code], env=full, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert proc.stderr == ""
    return proc.stdout


def test_import_gravclock_loads_no_numpy():
    out = _run("import sys, gravclock; print('numpy' in sys.modules)")
    assert out.split() == ["False"]


def test_airy_ai_still_served_from_the_package():
    out = _run("import gravclock; print(gravclock.airy_ai(0.0))")
    assert float(out) == pytest.approx(0.3550280538878172, abs=1e-15)


def test_cli_loads_oracle_and_bouncer_only_for_their_routes():
    out = _run(
        "import contextlib, io, sys\n"
        "from gravclock import cli\n"
        "def run(cfg, methods):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = cli.main(['run', '--config', cfg, '--methods', methods])\n"
        "    print(rc, [m for m in ('gravclock.oracle', 'gravclock.bouncer') "
        "if m in sys.modules])\n"
        "print([m for m in ('gravclock.oracle', 'gravclock.bouncer') if m in sys.modules])\n"
        "run('configs/sr88_freefall.cfg', 'closed,parametric,reduced,fi')\n"
        "run('configs/bouncer.cfg', 'closed')\n")
    assert out.splitlines() == ["[]", "0 []", "0 ['gravclock.oracle', 'gravclock.bouncer']"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_starts_no_blas_threads():
    code = ("import os, gravclock.cli\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert _run(code, OPENBLAS_NUM_THREADS=None).split() == ["1", "1"]


def test_cli_keeps_the_users_blas_threads():
    code = "import os, gravclock.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS="2").split() == ["2"]


def test_library_import_sets_no_blas_threads():
    code = "import os, gravclock; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _run(code, OPENBLAS_NUM_THREADS=None).split() == ["None"]
