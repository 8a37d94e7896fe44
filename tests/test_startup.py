"""What a fresh process pays to start (modules loaded, threads started),
and that the BLAS thread count it starts with changes no output.

Each check runs in its own interpreter, since this one has long since
imported numpy and every gravclock module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str, **env) -> str:
    """stdout of ``python -c code`` with src on the path and ``env`` set
    (a value of None removes the variable)."""
    return _python("-c", code, **env).decode()


def _python(*args: str, **env) -> bytes:
    """stdout bytes of ``python *args`` in the repo root, as for ``_run``;
    the process must exit 0 with nothing on stderr."""
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       full.get("PYTHONPATH")]))
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    proc = subprocess.run([sys.executable, *args], env=full, cwd=ROOT,
                          capture_output=True, check=True)
    assert proc.stderr == b""
    return proc.stdout


def test_import_gravclock_loads_no_numpy():
    out = _run("import sys, gravclock; print('numpy' in sys.modules)")
    assert out.split() == ["False"]


def test_airy_ai_still_served_from_the_package():
    """Ai(0) and Ai'(0) in a fresh process: the table's scale is fixed by Ai(0)
    alone, so Ai'(0) checks the march that carries the rest of it."""
    out = _run("import gravclock\n"
               "from gravclock.bouncer import airy_ai_prime\n"
               "print(gravclock.airy_ai(0.0), airy_ai_prime(0.0))")
    ai, aip = map(float, out.split())
    assert ai == pytest.approx(0.3550280538878172, abs=1e-15)
    assert aip == pytest.approx(-0.2588194037928068, abs=1e-15)


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


def test_bouncer_oracle_report_independent_of_blas_threads(tmp_path):
    """The bouncer oracle's render contracts its Airy basis by BLAS matrix
    products; its report must be the same bytes on one BLAS thread or two."""
    reports = []
    for threads in ("1", "2"):
        argv = ["run", "--config", "configs/bouncer.cfg", "--methods", "closed,oracle",
                "--out", str(tmp_path / threads)]
        _run(f"import sys\nfrom gravclock import cli\nsys.exit(cli.main({argv!r}))",
             OPENBLAS_NUM_THREADS=threads)
        reports.append((tmp_path / threads / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_traced_bouncer_oracle_run_matches_untraced(tmp_path):
    """perfbench's tracer replays a bouncer oracle run through the names it
    wraps: the same stdout bytes as an untraced run, and a summary that
    counts the render's Airy points and the engine's calls."""
    argv = ["run", "--config", "configs/bouncer.cfg", "--methods", "closed,oracle"]
    traced = _python("perfbench/tracer.py", str(tmp_path / "t.json"), "--", *argv)
    plain = _python("-c", f"import sys\nfrom gravclock import cli\nsys.exit(cli.main({argv!r}))")
    assert traced == plain
    summary = json.loads((tmp_path / "t.json").read_text())
    assert summary["rc"] == 0
    assert summary["render_level_points"] > 0
    assert summary["groups"]["bouncer.airy"]["calls"] > 0
