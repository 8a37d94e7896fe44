"""gravclock benchmark: timed CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload gauss-oracle --seed 1 --seconds 25 --trace 0

Load generator: one client in a closed loop.  Each op is a ``gravclock``
CLI invocation in a fresh interpreter (``python -m gravclock.cli`` with the
checkout's ``src`` on PYTHONPATH), so interpreter start, import and the
lazy Airy-table build are paid per op exactly as a user pays them.  The
workload's fixed op list is repeated as whole passes until the next pass
would end after ``--seconds``; at least one pass always runs.  The
workload's check ops then run once, untimed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes with passes whose ops run under ``tracer.py`` and prints the
per-layer metrics.  Every op's output is checked (see checks.py) in both
modes; the last stdout line is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from checks import KNOWN_DEFECT, CheckResult, check, classify_known_defect
from tracer import AIRY_REGIONS, airy_probe

if TYPE_CHECKING:
    from workloads import Op     # imports gravclock, so only once src is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Metric names and units: BENCHMARK.json is the one list of both.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}

SETUP_BEFORE = 3       # set-up samples before the passes; one follows every op
SETUP_MIN = 8          # topped up after the passes when there are fewer ops
SETUP_CODE = "import gravclock; gravclock.airy_ai(0.0)"   # import + Airy tables
RUN_DEADLINE_S = 170.0


@dataclass
class OpRun:
    """One execution of an op: timing, memory, check result, trace summary."""

    op: Op
    traced: bool
    rc: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    check: CheckResult
    summary: dict | None


def spawn(cmd: list[str], env: dict, cwd: Path, stdout: Path, deadline: float):
    """Run cmd to completion; return (exit code, wall s, peak RSS MB, CPU s).

    The child is waited for without being reaped first (WNOWAIT), so the
    timeout kill can never hit a recycled pid, then reaped with wait4 for
    its own resource usage.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd, env=env)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


class Runner:
    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))

    def run(self, op, traced: bool) -> OpRun:
        stdout_path = self.workdir / f"{op.name}.stdout"
        summary_path = self.workdir / f"{op.name}.summary.json"
        shutil.rmtree(op.out_dir, ignore_errors=True)
        summary_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(summary_path), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "gravclock.cli", *op.argv]
        rc, wall, rss, cpu = spawn(cmd, self.env, self.workdir, stdout_path, self.deadline)
        stdout = stdout_path.read_text()
        result = check(op, rc, stdout, str(self.workdir))
        summary = None
        if traced:
            if summary_path.exists():
                summary = json.loads(summary_path.read_text())
                # Time the op, not the tracer's own bookkeeping after it.
                wall -= summary["postprocess_s"]
            elif not result.errors:
                result.fail("tracer wrote no summary")
        return OpRun(op, traced, rc, wall, rss, cpu, result, summary)

    def setup_times(self, count: int, cold: bool = False) -> list[tuple[float, float]]:
        """(wall s, CPU s) of fresh interpreters importing gravclock and
        building the Airy tables.  A cold first start is run and not counted."""
        times = []
        for k in range(count + cold):
            rc, wall, _rss, cpu = spawn([sys.executable, "-c", SETUP_CODE], self.env, self.workdir,
                                   self.workdir / "setup.stdout", self.deadline)
            if rc != 0:
                raise RuntimeError(f"set-up interpreter exited {rc}; see {self.workdir}/setup.stderr")
            if k or not cold:
                times.append((wall, cpu))
        return times


def closed_loop(ops, seconds: float, modes: tuple[bool, ...], runner: Runner,
                setup: list | None = None) -> list[list[OpRun]]:
    """Repeat [pass for each mode] until the next round would overrun.

    With a ``setup`` list, one set-up sample is appended after every
    untraced op, so the samples see the same host periods as the ops.
    """
    passes: list[list[OpRun]] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in modes:
            runs = []
            for op in ops:
                runs.append(runner.run(op, traced))
                if setup is not None and not traced:
                    setup += runner.setup_times(1)
            passes.append(runs)
        now = time.monotonic()
        if now + (now - round_start) > min(start + seconds, runner.deadline):
            return passes


def workload_time(passes: list[list[OpRun]], attr: str = "wall_s") -> float:
    """Summed over the op list, each op's median time across passes."""
    return sum(_median([getattr(p[k], attr) for p in passes]) for k in range(len(passes[0])))


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced passes
# ---------------------------------------------------------------------------

def _merge(summaries: list[dict]) -> dict:
    """Sum the group tables and counters of several ops' tracer summaries."""
    groups: dict[str, dict] = {}
    total = {"groups": groups, "render_level_points": 0, "sweep_method_s": 0.0}
    for s in summaries:
        for g, acc in s["groups"].items():
            out = groups.setdefault(g, {"calls": 0, "total_s": 0.0, "work": {}})
            out["calls"] += acc["calls"]
            out["total_s"] += acc["total_s"]
            for key, value in acc["work"].items():
                out["work"][key] = out["work"].get(key, 0) + value
        for key in ("render_level_points", "sweep_method_s"):
            total[key] += s[key]
    return total


def layer_metrics(summaries: list[dict], probe: dict, missing: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (summaries of its ops)."""
    t = _merge(summaries)
    empty = {"calls": 0, "total_s": 0.0, "work": {}}

    def calls(g):
        return t["groups"].get(g, empty)["calls"]

    def secs(g):
        return t["groups"].get(g, empty)["total_s"]

    def work(g, key):
        return t["groups"].get(g, empty)["work"].get(key, 0)

    def ratio(metric, num, den, why):
        if den:
            return num / den
        missing[metric] = why
        return 0.0

    wf_points = work("gaussian.wavefunction", "points")
    airy = {region: work("bouncer.airy", region) for region in AIRY_REGIONS}
    m = {
        "core.config_s": secs("core.config"),
        "core.check_regime_calls": calls("core.check_regime"),
        "core.check_regime_s": secs("core.check_regime"),
        "gaussian.evolve_state_calls": calls("gaussian.evolve_state"),
        "gaussian.evolve_state_s": secs("gaussian.evolve_state"),
        "gaussian.pair_moments_calls": calls("gaussian.pair_moments_built"),
        "gaussian.pair_moments_s": secs("gaussian.pair_moments"),
        "gaussian.wavefunction_points": wf_points,
        "gaussian.wavefunction_ns_per_point": ratio(
            "gaussian.wavefunction_ns_per_point", secs("gaussian.wavefunction") * 1e9, wf_points,
            "no grid wavefunctions are sampled on this workload"),
        "estimation.closed_s": secs("estimation.closed"),
        "estimation.parametric_s": secs("estimation.parametric"),
        "estimation.reduced_s": secs("estimation.reduced"),
        "estimation.fi_numeric_s": secs("estimation.fi_numeric"),
        "oracle.qfi_numeric_s": secs("oracle.qfi_numeric"),
        "oracle.fidelity_calls": ratio(
            "oracle.fidelity_calls", calls("oracle.fidelity"), calls("oracle.points"),
            "no oracle points on this workload"),
        "oracle.grid_points": work("oracle.render", "grid_points"),
        "oracle.render_s": secs("oracle.render"),
        "oracle.render_ns_per_branch_point": ratio(
            "oracle.render_ns_per_branch_point", secs("oracle.render") * 1e9,
            work("oracle.render", "branch_points"), "no Gaussian grid renders on this workload"),
        "oracle.fidelity_s": secs("oracle.fidelity"),
        "bouncer.airy_table_s": probe["airy_table_s"],
        **{f"bouncer.airy_points.{r}": n for r, n in airy.items()},
        **{f"bouncer.airy_ns_per_point.{r}": ns for r, ns in probe["airy_ns_per_point"].items()},
        "bouncer.zeros_calls": calls("bouncer.zeros"),
        "bouncer.zeros_s": secs("bouncer.zeros"),
        "bouncer.coefficients_s": secs("bouncer.coefficients"),
        "bouncer.render_calls": calls("bouncer.render"),
        "bouncer.render_s": secs("bouncer.render"),
        "bouncer.render_level_points": t["render_level_points"],
        "cli.sweep_concurrency": ratio(
            "cli.sweep_concurrency", t["sweep_method_s"], secs("cli.run_sweep"),
            "no sweeps on this workload"),
        "cli.csv_write_s": secs("cli.csv_write"),
        "cli.report_json_s": secs("cli.report_json"),
    }
    return m


# ---------------------------------------------------------------------------
# Provenance and the digest store
# ---------------------------------------------------------------------------

def cpu_steal() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def steal_frac(start, end) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    ``cpu_steal`` readings."""
    if start is None or end is None or end[1] == start[1]:
        return None
    return round((end[0] - start[0]) / (end[1] - start[1]), 4)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "git_sha": sha, "src_sha256": src_digest(),
    }


def check_digests(runs: list[OpRun], src_hash: str) -> None:
    """Output bytes of one op must be identical in every pass, traced or
    not, and in every earlier run of the same sources in this checkout."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(src_hash, {})
    first: dict[str, str] = {}
    for r in runs:
        if r.check.errors or not r.check.digest:
            continue    # a failing output must not become the reference
        cfg = r.op.config.read_bytes()
        argv = "\0".join(r.op.argv).replace(str(r.op.out_dir.parent), "<work>")
        key = hashlib.sha256(cfg + argv.encode()).hexdigest()
        want = first.setdefault(key, known.get(key, r.check.digest))
        if r.check.digest != want:
            r.check.fail("output bytes differ from an earlier run of the same op")
        known[key] = want
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store))
    tmp.replace(store_path)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _median(xs):
    return float(statistics.median(xs))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so the running op is killed and reaped (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "gravclock" / "cli.py").is_file():
        print(f"error: no gravclock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gravclock
    if not Path(gravclock.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported gravclock from {gravclock.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (use: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = build(args.workload, args.seed, workdir)
        runner = Runner(workdir, deadline)
        return report(args, [op for op in ops if op.timed], [op for op in ops if not op.timed],
                      runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, ops, check_ops, runner: Runner) -> int:
    prov = provenance(args)
    steal_start = cpu_steal()
    setup = None if args.trace else runner.setup_times(SETUP_BEFORE, cold=True)
    modes = (False, True) if args.trace else (False,)
    passes = closed_loop(ops, args.seconds, modes, runner, setup)
    if setup is not None and len(setup) < SETUP_MIN:
        setup += runner.setup_times(SETUP_MIN - len(setup))
    timed = [r for p in passes for r in p]
    checked = [runner.run(op, traced=False) for op in check_ops]
    runs = timed + checked
    prov["steal_frac"] = steal_frac(steal_start, cpu_steal())
    for r in runs:
        classify_known_defect(r.op, r.check)
    check_digests(runs, prov["src_sha256"])

    failed = sum(1 for r in runs if r.check.errors)
    known = [r for r in runs if r.check.known]
    rel_errs = [e for r in runs for e in r.check.rel_errs]
    plain = [p for p in passes if not p[0].traced]
    workload_s = workload_time(plain)
    rows = sum(op.sweep_points for op in ops)

    if args.trace:
        probe = airy_probe(args.seed)
        traced = [p for p in passes if p[0].traced]
        missing: dict[str, str] = {}
        per_pass = [layer_metrics([r.summary for r in p if r.summary], probe, missing)
                    for p in traced]
        metrics = {k: _median([pm[k] for pm in per_pass]) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = workload_time(traced) / workload_s - 1.0
    else:
        metrics = {
            "setup_s": _median([cpu for _wall, cpu in setup]),
            "workload_cpu_s": workload_time(plain, "cpu_s"),
            "op_cpu_s_p50": _median([r.cpu_s for r in timed]),
            "peak_rss_mb": max(r.rss_mb for r in timed),
        }
        missing = {}
    listed = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(listed):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(listed)}")

    samples = {"setup_s": len(setup or ()), "workload_cpu_s": len(plain),
               "op_cpu_s_p50": len(timed), "peak_rss_mb": len(timed)}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes of "
          f"{len(ops)} ops, {rows} sweep rows per pass, then {len(check_ops)} check ops")
    for r in runs:
        status = ("FAIL " + "; ".join(r.check.errors[:3]) if r.check.errors
                  else "KNOWN DEFECT " + "; ".join(r.check.known[:3]) if r.check.known else "ok")
        kind = "check " if not r.op.timed else "traced" if r.traced else "plain "
        print(f"#   {kind} {r.op.name:14s} {r.wall_s:8.3f} s wall {r.cpu_s:8.3f} s CPU "
              f"{r.rss_mb:7.1f} MB  {status}")
    for name, value in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"# {name} = {value:.6g} {UNITS[name]}{n}")
    if not args.trace:
        # Wall times: what a user waits, but on a shared host they follow
        # the CPU time stolen by other guests (steal_frac), so they are
        # printed, not bounded.
        print(f"# wall: setup_s = {_median([wall for wall, _cpu in setup]):.6g} s, "
              f"workload_s = {workload_s:.6g} s, op_s_p50 = "
              f"{_median([r.wall_s for r in timed]):.6g} s, steal_frac = {prov['steal_frac']}")
        if rows:
            print(f"# rows_per_s = {rows / workload_s:.6g} 1/s (sweep rows per pass / "
                  "wall workload_s)")
    for name, why in sorted(missing.items()):
        print(f"# not measured: {name}: {why} (reported as 0)")
    print(f"# ops_failed_frac = {failed / len(runs):.6g} ({failed} of {len(runs)})")
    print(f"# known_defects = {len(known)} of {len(runs)} ops: {KNOWN_DEFECT} "
          f"({', '.join(r.op.name for r in known) or 'none shows'}); not counted in failed")
    if rel_errs:
        print(f"# max_rel_err = {max(rel_errs):.6g} (worst cross-route gap, n={len(rel_errs)})")
    print("# provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    detail = dict(result, provenance=prov, samples=samples, not_measured=missing,
                  max_rel_err=max(rel_errs) if rel_errs else None,
                  ops=[{"op": r.op.name, "timed": r.op.timed, "traced": r.traced, "rc": r.rc,
                        "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                        "errors": r.check.errors, "known_defect": r.check.known,
                        "spans": r.summary["names"] if r.summary else None} for r in runs])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
