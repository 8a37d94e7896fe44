"""Span tracer for one traced CLI invocation, and the Airy region probe.

Run as a script, it imports gravclock from the checkout, wraps every
public function of the six layer modules (plus a few public methods) in a
span recorder, replays the given argv through ``gravclock.cli.main`` and
writes a summary computed from the spans it kept in memory:

    python3 perfbench/tracer.py summary.json -- run --config c.cfg --methods closed

The wrappers live here, not in the program: each public function is
replaced under every name a gravclock module looks it up by (``oracle``
holds its own reference to ``gaussian.wavefunction_values``, ``bouncer``
to ``oracle.fidelity``, ``cli`` to ``core.check_regime``, ...).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("core", "gaussian", "estimation", "oracle", "bouncer", "cli")

# Rendered Ai(y) underflows to exactly 0 beyond this argument (see
# bouncer.AiryEngine._asym_pos); the other cutoffs are engine attributes.
UNDERFLOW_Y = 108.0
AIRY_REGIONS = ("series", "neg_bridge", "pos_bridge", "neg_asym", "pos_asym", "underflow")

# The callables cli._evaluate_methods dispatches to, one per method.
METHOD_SPANS = frozenset({
    "estimation.closed_qfi", "estimation.qfi_pure_parametric", "estimation.closed_reduced_qfi",
    "estimation.closed_fi", "estimation.fi_numeric", "oracle.qfi_numeric",
    "bouncer.bouncer_qfi_longtime", "bouncer.bouncer_qfi_numeric",
})
AIRY_SPANS = frozenset({"bouncer.AiryEngine.ai", "bouncer.AiryEngine.ai_prime"})

# Span groups the per-layer metrics are built from.  A group's time and
# call count take only its outermost spans, so a group member called from
# another member (PairMoments.braket -> expect_u) is not counted twice.
GROUPS = {
    "core.config": {"core.load_config", "core.params_from_config"},
    "core.check_regime": {"core.check_regime"},
    "gaussian.evolve_state": {"gaussian.evolve_state"},
    "gaussian.pair_moments": {"gaussian.PairMoments.__init__", "gaussian.PairMoments.braket",
                              "gaussian.PairMoments.expect_u"},
    "gaussian.pair_moments_built": {"gaussian.PairMoments.__init__"},
    "gaussian.wavefunction": {"gaussian.wavefunction_values"},
    "estimation.closed": {"estimation.closed_qfi", "estimation.closed_fi"},
    "estimation.parametric": {"estimation.qfi_pure_parametric"},
    "estimation.reduced": {"estimation.closed_reduced_qfi"},
    "estimation.fi_numeric": {"estimation.fi_numeric"},
    "oracle.qfi_numeric": {"oracle.qfi_numeric"},
    "oracle.points": {"oracle.qfi_numeric", "bouncer.bouncer_qfi_numeric"},
    "oracle.render": {"oracle.render"},
    "oracle.fidelity": {"oracle.fidelity"},
    "bouncer.airy": AIRY_SPANS,
    "bouncer.zeros": {"bouncer.AiryEngine.zeros"},
    "bouncer.coefficients": {"bouncer.bouncer_coefficients"},
    "bouncer.render": {"bouncer.render_spectral"},
    "cli.methods": METHOD_SPANS,
    "cli.run_sweep": {"cli.run_sweep"},
    "cli.csv_write": {"cli.write_sweep_csv"},
    "cli.report_json": {"estimation.EstimationReport.to_json"},
}


def airy_regions(engine, y) -> dict[str, int]:
    """Count arguments per evaluation region, with the engine's own cutoffs."""
    y = np.asarray(y, dtype=float)
    # Points at or below each region's upper end, in region order.
    below = [int(np.count_nonzero(y < -engine.neg_cutoff)),
             int(np.count_nonzero(y < -engine.series_cutoff)),
             int(np.count_nonzero(y <= engine.series_cutoff)),
             int(np.count_nonzero(y <= engine.pos_cutoff)),
             int(np.count_nonzero(y <= UNDERFLOW_Y)),
             int(y.size)]
    order = ("neg_asym", "neg_bridge", "series", "pos_bridge", "pos_asym", "underflow")
    return {region: hi - lo for region, lo, hi in zip(order, [0, *below[:-1]], below)}


class Tracer:
    """Thread-safe span recorder; spans stay in memory until the op ends.

    Each thread appends to its own list, so recording a span takes no
    lock; the lock is taken once per thread, to register that list.  A
    span is (id, parent id, name, start, end, work): the parent is the
    innermost open span on the same thread (0 at a thread's top level),
    ids grow along a thread, and work is a dict of work counts or None.
    """

    def __init__(self) -> None:
        self._lists: list[list[tuple]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def spans(self) -> list[tuple]:
        return [span for spans in self._lists for span in spans]

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                spans: list[tuple] = []
                self._lists.append(spans)
                ids = itertools.count((len(self._lists) << 40) + 1)
            state = self._local.state = (spans, [], ids)
        return state

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, ids = self._thread_state()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              work(*args, **kwargs) if work is not None else None))
        return traced


def _points_work(branch, x):
    return {"points": int(np.size(x))}


def _render_work(state, grid, *args, **kwargs):
    return {"grid_points": grid.n_points,
            "branch_points": grid.n_points * len(state.components)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    import gravclock
    mods = {name: __import__(f"gravclock.{name}", fromlist=[name]) for name in LAYERS}
    engine_cls = mods["bouncer"].AiryEngine

    wrapped: dict[int, object] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                work = None
                if obj is mods["gaussian"].wavefunction_values:
                    work = _points_work
                elif obj is mods["oracle"].render:
                    work = _render_work
                wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj, work)
    # Rebind every reference, including ``from .x import f`` copies.
    for mod in (*mods.values(), gravclock):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    methods = [
        (mods["gaussian"].PairMoments, "__init__", None),
        (mods["gaussian"].PairMoments, "braket", None),
        (mods["gaussian"].PairMoments, "expect_u", None),
        (mods["estimation"].EstimationReport, "to_json", None),
        (engine_cls, "ai", airy_regions),
        (engine_cls, "ai_prime", airy_regions),
        (engine_cls, "ai_log", None),
        (engine_cls, "zeros", None),
    ]
    for cls, attr, work in methods:
        short = cls.__module__.rsplit(".", 1)[-1]
        setattr(cls, attr, tracer.wrap(f"{short}.{cls.__name__}.{attr}",
                                       getattr(cls, attr), work))


def summarize(spans: list[tuple]) -> dict:
    """Per-name and per-group calls, time and work, from the raw spans.

    ``names`` gives every span name's calls, inclusive time and self time
    (inclusive minus the time of its child spans).  ``groups`` gives each
    group of GROUPS over its outermost spans, plus the Ai points evaluated
    under ``render_spectral`` and the method time inside ``run_sweep``.
    """
    group_bits = {g: 1 << k for k, g in enumerate(GROUPS)}
    name_mask: dict[str, int] = defaultdict(int)
    for g, members in GROUPS.items():
        for name in members:
            name_mask[name] |= group_bits[g]
    child_time: dict[int, float] = defaultdict(float)
    inherited: dict[int, int] = {0: 0}       # groups open above each span
    names: dict[str, dict] = {}
    groups = {g: {"calls": 0, "total_s": 0.0, "work": {}} for g in GROUPS}
    render_level_points = 0
    sweep_method_s = 0.0
    ordered = sorted(spans)                  # parents before children
    by_id = {s[0]: s for s in ordered}
    for sid, parent, name, start, end, work in ordered:
        inherited[sid] = inherited[parent] | (name_mask[by_id[parent][2]] if parent else 0)
        if parent:
            child_time[parent] += end - start
    sweeps = [(s[3], s[4]) for s in ordered if s[2] == "cli.run_sweep"]
    for sid, parent, name, start, end, work in ordered:
        rec = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child_time[sid]
        outer = name_mask[name] & ~inherited[sid]
        for g, bit in group_bits.items() if outer else ():
            if outer & bit:
                acc = groups[g]
                acc["calls"] += 1
                acc["total_s"] += end - start
                for key, value in (work or {}).items():
                    acc["work"][key] = acc["work"].get(key, 0) + value
        if name in AIRY_SPANS and inherited[sid] & group_bits["bouncer.render"]:
            render_level_points += sum(work.values())
        if outer & group_bits["cli.methods"] and any(a <= start <= b for a, b in sweeps):
            sweep_method_s += end - start
    return {"names": names, "groups": groups, "render_level_points": render_level_points,
            "sweep_method_s": sweep_method_s}


def airy_probe(seed: int, points: int = 1 << 15, repeats: int = 5) -> dict:
    """ns per point of AiryEngine.ai on a fixed seeded sample per region,
    and the time a fresh engine spends building its bridge tables."""
    from gravclock.bouncer import AiryEngine

    table_s = []
    for _ in range(3):
        engine = AiryEngine()
        probe = np.zeros(1)
        t0 = time.perf_counter()
        engine.ai(probe)
        t1 = time.perf_counter()
        engine.ai(probe)
        t2 = time.perf_counter()
        table_s.append((t1 - t0) - (t2 - t1))
    bands = {
        "series": (-engine.series_cutoff, engine.series_cutoff),
        "neg_bridge": (-engine.neg_cutoff, -engine.series_cutoff),
        "pos_bridge": (engine.series_cutoff, engine.pos_cutoff),
        "neg_asym": (-170.0, -engine.neg_cutoff),
        "pos_asym": (engine.pos_cutoff, UNDERFLOW_Y),
        "underflow": (UNDERFLOW_Y, 170.0),
    }
    rng = np.random.default_rng([seed, 7])
    ns = {}
    for region, (lo, hi) in bands.items():
        y = rng.uniform(lo, hi, points)
        y = y[(y != lo) & (y != hi)]
        if airy_regions(engine, y)[region] != y.size:
            raise RuntimeError(f"probe sample for {region} leaves its region")
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            engine.ai(y)
            times.append(time.perf_counter() - t0)
        ns[region] = float(np.median(times)) / y.size * 1e9
    return {"airy_table_s": float(np.median(table_s)), "airy_ns_per_point": ns}


def main(argv: list[str]) -> int:
    out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY_JSON -- <gravclock argv>")
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from gravclock import cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    rc = cli.main(cli_argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    spans = tracer.spans
    summary = summarize(spans)
    summary.update(rc=rc, wall_s=wall, spans=len(spans),
                   postprocess_s=time.perf_counter() - start - wall)
    Path(out_path).write_text(json.dumps(summary))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
