"""What a fresh process pays to start (modules loaded, threads started),
and that the BLAS thread count it starts with changes no output.

Each check runs in its own interpreter, since this one has long since
imported numpy and every gravclock module.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str, **env) -> str:
    """stdout of ``python -c code`` with src on the path and ``env`` set
    (a value of None removes the variable)."""
    return _python("-c", code, **env).decode()


def _spawn(*args: str, **env) -> subprocess.CompletedProcess:
    """``python *args`` in the repo root with src on the path and ``env`` set
    (a value of None removes the variable), its output captured."""
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       full.get("PYTHONPATH")]))
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    return subprocess.run([sys.executable, *args], env=full, cwd=ROOT, capture_output=True)


def _python(*args: str, **env) -> bytes:
    """stdout bytes of ``_spawn(*args, **env)``, which must exit 0 with
    nothing on stderr."""
    proc = _spawn(*args, **env)
    assert (proc.returncode, proc.stderr) == (0, b"")
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


def _modules_after(argv: list[str] | None) -> list[str]:
    """The gravclock modules a fresh process holds after ``import gravclock.cli``
    and, unless argv is None, one ``cli.main(argv)`` that must return 0."""
    code = ("import contextlib, io, sys\n"
            "from gravclock import cli\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('gravclock.'))))\n")
    return _run(code).split()


def test_cli_loads_oracle_and_bouncer_only_for_their_routes(tmp_path):
    """Each op loads only the modules its routes use: a bouncer closed sweep
    neither estimation nor gaussian nor oracle, a run adds estimation (its
    report) and with it gaussian, and no closed route loads oracle."""
    bouncer_sweep = ["sweep", "--config", "configs/bouncer.cfg", "--var", "dt", "--from", "0.1",
                     "--to", "0.2", "--points", "3", "--methods", "closed", "--out", str(tmp_path)]
    assert _modules_after(None) == ["gravclock.cli", "gravclock.core"]
    assert _modules_after(bouncer_sweep) == ["gravclock.bouncer", "gravclock.cli", "gravclock.core"]
    assert _modules_after(["run", "--config", "configs/bouncer.cfg", "--methods", "closed"]) == [
        "gravclock.bouncer", "gravclock.cli", "gravclock.core", "gravclock.estimation",
        "gravclock.gaussian"]
    assert _modules_after(["run", "--config", "configs/sr88_freefall.cfg",
                           "--methods", "closed,parametric,reduced,fi"]) == [
        "gravclock.cli", "gravclock.core", "gravclock.estimation", "gravclock.gaussian"]


def test_bouncer_import_loads_no_oracle_estimation_or_gaussian():
    """perfbench's set-up probe imports gravclock.bouncer (through
    gravclock.airy_ai): it loads core and nothing the closed route does not use."""
    out = _run("import sys, gravclock.bouncer\n"
               "print(' '.join(sorted(m for m in sys.modules if m.startswith('gravclock.'))))")
    assert out.split() == ["gravclock.bouncer", "gravclock.core"]


# Counts the ``zeros`` calls that run Newton (make at least one ``_eval`` pass).
_COUNT_NEWTON_RUNS = """\
import contextlib, io, sys
from gravclock import bouncer as bc, cli
runs = []
zeros, evaluate = bc.AiryEngine.zeros, bc.AiryEngine._eval

def counted_zeros(self, *counts):
    runs.append(0)
    return zeros(self, *counts)

def counted_eval(self, y):
    if sys._getframe(1).f_code.co_name == "zeros":
        runs[-1] += 1
    return evaluate(self, y)

bc.AiryEngine.zeros, bc.AiryEngine._eval = counted_zeros, counted_eval
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(sum(1 for steps in runs if steps))
"""


@pytest.mark.parametrize("args", [
    ["run", "--methods", "closed"],
    ["run", "--methods", "closed,oracle"],
    ["sweep", "--var", "dt", "--from", "0.05", "--to", "0.5", "--points", "40", "--methods", "closed"],
    ["sweep", "--var", "g", "--from", "9.6", "--to", "10.0", "--points", "40", "--methods", "closed"],
], ids=["closed", "closed,oracle", "dt-sweep", "g-sweep"])
def test_bouncer_op_runs_the_zeros_newton_once(tmp_path, args):
    """Every level count a bouncer op uses (the level-count scan's blocks of 512,
    the projections' 450-459, the oracle's stencil) is a prefix of one table of
    zeros, so the op's process runs Newton once.  Each op used to run it twice:
    zeros(512) for the scan, then again for the counts it projects on."""
    argv = [args[0], "--config", "configs/bouncer.cfg", *args[1:], "--out", str(tmp_path)]
    assert _python("-c", _COUNT_NEWTON_RUNS, *argv).split() == [b"1"]


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


_ALL = "closed,parametric,oracle,reduced,fi"
_RUNS = {"bouncer": ["run", "--config", "configs/bouncer.cfg", "--methods", "closed,oracle"],
         "freefall": ["run", "--config", "configs/sr88_freefall.cfg", "--methods", _ALL]}


@pytest.mark.parametrize("case", list(_RUNS))
def test_report_independent_of_blas_threads(tmp_path, case):
    """The CLI pins one BLAS thread only when none is set, so a report must be
    the same bytes on one BLAS thread or two: the Bures misses and grid norms
    are einsum sums, and the bouncer render's sums are FFT correlations
    (pocketfft, one thread) and elementwise products."""
    reports = []
    for threads in ("1", "2"):
        argv = [*_RUNS[case], "--out", str(tmp_path / threads)]
        _run(f"import sys\nfrom gravclock import cli\nsys.exit(cli.main({argv!r}))",
             OPENBLAS_NUM_THREADS=threads)
        reports.append((tmp_path / threads / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("case,group,points", [("bouncer", "bouncer.airy", (1, 20000)),
                                               ("freefall", "oracle.render", (0, 1))],
                         ids=list(_RUNS))
def test_traced_run_matches_untraced(tmp_path, case, group, points):
    """perfbench's tracer replays a run through the names it wraps: the same
    stdout bytes as an untraced run, and a summary that counts the traced
    group's calls and the bouncer render's Airy points (5565 on
    configs/bouncer.cfg, one lattice per family; 925,350 when the render
    evaluated every row)."""
    argv = _RUNS[case]
    traced = _python("perfbench/tracer.py", str(tmp_path / "t.json"), "--", *argv)
    plain = _python("-c", f"import sys\nfrom gravclock import cli\nsys.exit(cli.main({argv!r}))")
    assert traced == plain
    summary = json.loads((tmp_path / "t.json").read_text())
    assert summary["rc"] == 0
    assert points[0] <= summary["render_level_points"] < points[1]
    assert summary["groups"][group]["calls"] > 0


_FAST = "closed,parametric,reduced,fi"
_ENTRY_CASES = {
    "freefall-run": (["run", "--config", "configs/sr88_freefall.cfg", "--methods", _FAST], 0),
    "mz-sweep": (["sweep", "--config", "configs/sr88_mz.cfg", "--var", "dt", "--from", "5",
                  "--to", "30", "--points", "4", "--log", "--methods", _FAST], 0),
    "bouncer-run": (["run", "--config", "configs/bouncer.cfg", "--methods", "closed"], 0),
    "exit-2": (["run", "--config", "configs/bouncer.cfg", "--methods", "parametric"], 2),
    "exit-3": (["run", "--config", "{g_1e30}", "--methods", "fi"], 3),
}


@pytest.mark.parametrize("case", list(_ENTRY_CASES))
def test_process_entry_matches_in_process_main(case, tmp_path):
    """``python -m gravclock.cli`` and the console script's target (which
    freeze the heap at exit) give the stdout, stderr, output files and exit
    code of ``cli.main`` called in the process."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert '[project.scripts]\ngravclock = "gravclock.cli:entry"\n' in pyproject
    cfg = tmp_path / "g_1e30.cfg"
    lines = (ROOT / "configs/sr88_freefall.cfg").read_text().splitlines(keepends=True)
    cfg.write_text("".join("physics.g = 1e30\n" if line.startswith("physics.g ") else line
                           for line in lines))
    argv, rc = _ENTRY_CASES[case]
    argv = [arg.format(g_1e30=cfg) for arg in argv] + ["--out", str(tmp_path / "out")]
    outcomes = []
    for launch in (["-m", "gravclock.cli"],
                   ["-c", "import sys\nfrom gravclock.cli import entry\nsys.exit(entry())"],
                   ["-c", "import sys\nfrom gravclock import cli\nsys.exit(cli.main(sys.argv[1:]))"]):
        proc = _spawn(*launch, *argv)
        out = tmp_path / "out"
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        outcomes.append((proc.returncode, proc.stdout, proc.stderr, files))
    assert outcomes[0][0] == rc
    assert bool(outcomes[0][3]) == (rc == 0)
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_runs_where_longdouble_is_float64():
    """With numpy's longdouble made float64 before gravclock loads, as on
    platforms without the x87 80-bit format, the package imports and the
    free-fall parametric, FI and oracle routes give the values they give here."""
    from gravclock import core, estimation as est, oracle
    cfg = core.load_config(ROOT / "configs" / "sr88_freefall.cfg")
    sc = est.Scenario("free_fall", core.params_from_config(cfg), "g")
    here = [est.qfi_pure_parametric(sc), est.fi_numeric(sc), oracle.qfi_numeric(sc)]
    code = ("import numpy; numpy.longdouble, numpy.clongdouble = numpy.float64, numpy.complex128\n"
            "from gravclock import core, estimation as est, oracle\n"
            "cfg = core.load_config('configs/sr88_freefall.cfg')\n"
            "sc = est.Scenario('free_fall', core.params_from_config(cfg), 'g')\n"
            "print(repr([est.qfi_pure_parametric(sc), est.fi_numeric(sc), oracle.qfi_numeric(sc)]))")
    assert _run(code).strip() == repr(here)
