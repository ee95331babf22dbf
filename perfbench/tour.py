"""The traced run: per-layer timings from a fixed tour of every layer.

Spans are recorded only from this file. For the run's duration, every public
function that one ``latticegate`` module imports from another (for example
``lattice.mean_fg`` or ``cli.truth_table``) is replaced in the importing
module's namespace by a wrapper that records a span, and the tour calls its
entry points (``cli.main``, ``overlap.mean_fg`` ...) through the same
wrappers. Spans nest through a stack, so a span's self time is its duration
minus that of its direct children. Spans stay in memory; those of the last
traced pass are written when the run ends.

The tour is the same on every workload, so layer numbers compare across
workloads and commits. It alternates an untraced and a traced pass over the
same inputs; the difference of their median wall times is the tracing
overhead, and their outputs must be byte-identical.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import random
import statistics
import time

import numpy as np

import fixtures
from common import OpLog, run_child
from workloads import LABELS, ZChecks, add_row_check, check_cli_output

MODULES = ("atomics", "dipole_kernel", "overlap", "lattice", "gate", "ensemble", "cli")
ENTRY_POINTS = (
    "cli.main",
    "overlap.mean_fg",
    "overlap.kappa_map",
    "overlap.mc_oracle",
    "ensemble.simulate_fill",
    "ensemble.run_stage",
    "ensemble.background_subtract",
)
GEOMETRIES = {
    "ref": (0.1, 0.2),
    "iso": (0.15, 0.15),
    "cigar6": (0.05, 0.3),
    "pancake6": (0.3, 0.05),
    "cigar20": (0.05, 1.0),
}
MAP_GRIDS = {"domain": ((0.05, 0.3, 4), (0.05, 0.3, 4)), "cigar_band": ((0.05, 0.1, 3), (0.5, 1.0, 3))}
TOUR_SITES = 10**7
IMPORT_REPEATS = 3
COMMANDS = ("kappa", "budget", "gate", "ensemble")


# What a span records about its call, by span name.
LABELERS = {
    "cli.main": lambda a, k: a[0][0],
    "overlap.mean_fg": lambda a, k: (a[0].eta_perp, a[0].eta_par),
    "overlap.kappa_map": lambda a, k: len(a[0]) * len(a[1]),
    "dipole_kernel.radial_parts": lambda a, k: int(np.size(a[0])),
    "ensemble.simulate_fill": lambda a, k: a[0],
    "ensemble.run_stage": lambda a, k: (a[3], a[0].n_sites),
}


class Recorder:
    """In-memory spans: [name, label, parent index, start ns, end ns]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, labeler = self.spans, self._stack, LABELERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = labeler(args, kwargs) if labeler else None
            span = [name, label, stack[-1] if stack else -1, time.perf_counter_ns(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        for short in MODULES:
            module = importlib.import_module(f"latticegate.{short}")
            for name, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", "")
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and home.startswith("latticegate.") and home != module.__name__):
                    self._installed.append((module, name, obj))
                    setattr(module, name, self.wrap(f"{home.rsplit('.', 1)[1]}.{name}", obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._installed):
            setattr(module, name, obj)
        self._installed.clear()


def _entry_points(recorder: Recorder | None) -> dict:
    api = {}
    for dotted in ENTRY_POINTS:
        short, name = dotted.split(".")
        fn = getattr(importlib.import_module(f"latticegate.{short}"), name)
        api[dotted] = recorder.wrap(dotted, fn) if recorder else fn
    return api


# --- the tour -----------------------------------------------------------------


def tour_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "cli": [
            ["kappa", "--eta-perp", repr(round(rng.uniform(0.05, 0.3), 4)),
             "--eta-par", repr(round(rng.uniform(0.05, 0.3), 4))],
            ["budget", "--config", "configs/cesium_reference.cfg"],
            ["gate", "--shift-over-h-hz", f"{rng.uniform(1000.0, 10000.0):.1f}"],
            ["ensemble", "--sites", "100000", "--fill-prob", repr(rng.choice((0.3, 0.6, 0.9))),
             "--input", rng.choice(LABELS), "--seed", str(rng.randrange(1, 2**31))],
        ],
        "mc": ((round(rng.uniform(0.05, 0.3), 4), round(rng.uniform(0.05, 0.3), 4)),
               rng.randrange(2**31)),
        "readout": (rng.choice((0.3, 0.6, 0.9)), rng.choice(LABELS), rng.randrange(2**31)),
    }


def _hex(*values) -> bytes:
    return json.dumps([float(v).hex() for v in values]).encode()


def tour_pass(api: dict, inputs: dict, table, log: OpLog, found: dict) -> None:
    """One pass over every layer; outputs go to ``log`` under stable keys."""
    from latticegate.ensemble import STAGES
    from latticegate.overlap import TrapGeometry

    for argv in inputs["cli"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api["cli.main"](argv)
        log.add(" ".join(argv), 0.0, 1.0, out.getvalue().encode() if code == 0 else None)

    for name, geom in GEOMETRIES.items():
        r = api["overlap.mean_fg"](TrapGeometry(*geom))
        found["nodes"][name] = r.evaluations
        log.add(f"mean_fg {name}", 0.0, 1.0, _hex(r.mean_f, r.mean_g, r.err_f, r.err_g))

    for name, ((a, b, n), (c, d, m)) in MAP_GRIDS.items():
        values = api["overlap.kappa_map"](np.linspace(a, b, n), np.linspace(c, d, m))
        found["map"][name] = (int(np.isfinite(values).sum()), values.size)
        log.add(f"kappa_map {name}", 0.0, 1.0, _hex(*values.ravel()))

    geom, mc_seed = inputs["mc"]
    r = api["overlap.mc_oracle"](TrapGeometry(*geom), 10**6, mc_seed)
    log.add("mc_oracle", 0.0, 1.0, _hex(r.mean_f, r.mean_g, r.err_f, r.err_g))

    fill_prob, label, fill_seed = inputs["readout"]
    fill = api["ensemble.simulate_fill"](TOUR_SITES, fill_prob, fill_seed)
    stages = [api["ensemble.run_stage"](fill, table, label, STAGES[0]),
              api["ensemble.run_stage"](fill, None, label, STAGES[1]),
              api["ensemble.run_stage"](fill, table, label, STAGES[2])]
    row = api["ensemble.background_subtract"](stages)
    found["row"] = (row, stages[0].n_paired)
    log.add("readout", 0.0, 1.0, _hex(*row.probabilities, row.leaked, *row.errors))


# --- per-layer metrics from spans ----------------------------------------------

# Unit by the suffix of a metric name's second segment.
UNIT_SUFFIXES = (
    ("_nodes", "count"), ("us_per_node", "us"), ("_ratio", "ratio"), ("_pct", "%"),
    ("_ms_per_cell", "ms"), ("_ns_per_point", "ns"), ("_ns_per_site", "ns"),
    ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
)


def unit_of(name: str) -> str:
    segment = name.split(".")[1]
    return next(unit for suffix, unit in UNIT_SUFFIXES if segment.endswith(suffix))


def _durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """(duration, self time) of every span, in seconds."""
    total = [(s[4] - s[3]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[2] >= 0:
            child[s[2]] += total[i]
    return total, [t - c for t, c in zip(total, child)]


def layer_metrics(spans: list[list], found: dict) -> dict[str, float]:
    total, self_time = _durations(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def med(name, scale, pick=lambda label: True, times=total):
        return statistics.median(times[i] for i in by_name[name] if pick(spans[i][1])) * scale

    def per_unit(name, scale, units, pick=lambda label: True):
        chosen = [i for i in by_name[name] if pick(spans[i][1])]
        return sum(total[i] for i in chosen) / sum(units(spans[i][1]) for i in chosen) * scale

    m: dict[str, float] = {}
    for cmd in COMMANDS:
        m[f"cli.main_ms.{cmd}"] = med("cli.main", 1e3, lambda lb, c=cmd: lb == c)
        m[f"cli.self_ms.{cmd}"] = med("cli.main", 1e3, lambda lb, c=cmd: lb == c, self_time)
    for name, geom in GEOMETRIES.items():
        ms = med("overlap.mean_fg", 1e3, lambda lb, g=geom: lb == g)
        m[f"overlap.mean_fg_ms.{name}"] = ms
        m[f"overlap.mean_fg_nodes.{name}"] = found["nodes"][name]
        m[f"overlap.us_per_node.{name}"] = ms * 1e3 / found["nodes"][name]
    m["overlap.kappa_map_ms_per_cell"] = per_unit("overlap.kappa_map", 1e3, lambda lb: lb)
    converged = sum(c for c, _ in found["map"].values())
    m["overlap.map_converged_ratio"] = converged / sum(n for _, n in found["map"].values())
    m["overlap.mc_oracle_s"] = med("overlap.mc_oracle", 1.0)
    m["dipole_kernel.radial_parts_scalar_us"] = med("dipole_kernel.radial_parts", 1e6, lambda lb: lb == 1)
    m["dipole_kernel.radial_parts_vec_ns_per_point"] = per_unit(
        "dipole_kernel.radial_parts", 1e9, lambda lb: lb, lambda lb: lb > 1)
    m["ensemble.simulate_fill_ns_per_site"] = per_unit("ensemble.simulate_fill", 1e9, lambda lb: lb)
    for stage in ("paired_and_unpaired", "unpaired_only", "double_gate_with_flush"):
        m[f"ensemble.run_stage_ns_per_site.{stage}"] = per_unit(
            "ensemble.run_stage", 1e9, lambda lb: lb[1], lambda lb, s=stage: lb[0] == s)
    m["ensemble.background_subtract_us"] = med("ensemble.background_subtract", 1e6)
    m["lattice.load_lattice_config_ms"] = med("lattice.load_lattice_config", 1e3)
    m["lattice.budget_report_self_ms"] = med("lattice.budget_report", 1e3, times=self_time)
    m["lattice.catalysis_intensity_us"] = med("lattice.catalysis_intensity", 1e6)
    m["gate.truth_table_us"] = med("gate.truth_table", 1e6)
    m["gate.dd_matrix_element_us"] = med("gate.dd_matrix_element", 1e6)
    m["gate.truth_table_fidelity_us"] = med("gate.truth_table_fidelity", 1e6)
    m["atomics.cesium_d2_us"] = med("atomics.cesium_d2", 1e6)
    return m


# --- import layer ---------------------------------------------------------------


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of ``latticegate.cli`` and of the outermost numpy and
    scipy imports, from ``python -X importtime`` output (children print
    before their parent, each level indented two more spaces)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    sums = {"latticegate_cli_s": 0.0, "scipy_s": 0.0, "numpy_s": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, seconds in reversed(entries):  # parents now come first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for package in ("scipy", "numpy"):
            inside = name == package or name.startswith(package + ".")
            if inside and not any(a == package or a.startswith(package + ".") for _, a in stack):
                sums[f"{package}_s"] += seconds
        if name == "latticegate.cli":
            sums["latticegate_cli_s"] = seconds
        stack.append((depth, name))
    return sums


def measure_imports() -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        _, proc = run_child(["-X", "importtime", "-c", "import latticegate.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-2000:]}")
        runs.append(import_times(proc.stderr.decode()))
    return {f"import.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}


# --- the traced run ---------------------------------------------------------------


def traced_run(seed: int, seconds: float) -> dict:
    inputs = tour_inputs(seed)
    metrics = measure_imports()
    table = fixtures.reference_truth_table()
    plain = _entry_points(None)
    log = OpLog()
    found = {"nodes": {}, "map": {}}
    tour_pass(plain, inputs, table, OpLog(), found)  # warm-up

    untraced_s, traced_s, per_pass = [], [], []
    started = time.perf_counter()
    spans: list[list] = []
    while not per_pass or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        tour_pass(plain, inputs, table, log, found)
        untraced_s.append(time.perf_counter() - t0)

        recorder = Recorder()
        recorder.install()
        try:
            t0 = time.perf_counter()
            tour_pass(_entry_points(recorder), inputs, table, log, found)
            traced_s.append(time.perf_counter() - t0)
        finally:
            recorder.uninstall()
        per_pass.append(layer_metrics(recorder.spans, found))
        spans = recorder.spans

    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    overhead = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(untraced_s)

    checks = ZChecks()
    from latticegate.gate import STATE_LABELS
    from latticegate.overlap import TrapGeometry, mc_oracle, mean_fg

    for key, raw in log.first.items():
        if key.split()[0] in COMMANDS:
            check_cli_output(key, raw, log, checks)
        elif key.startswith("mean_fg"):
            geom = GEOMETRIES[key.split()[1]]
            f, g, _, _ = (float.fromhex(x) for x in json.loads(raw))
            if geom in fixtures.FROZEN_FG:
                log.check(key, fixtures.frozen_ok(geom, f, g), "mean_fg off the frozen values")
            else:
                sampled = mc_oracle(TrapGeometry(*geom), 10**6, seed)
                checks.add(key, f, sampled.mean_f, sampled.err_f)
                checks.add(key, g, sampled.mean_g, sampled.err_g)
        elif key.startswith("kappa_map"):
            converged, cells = found["map"][key.split()[1]]
            log.check(key, converged == cells, "kappa_map has failed cells")
        elif key == "mc_oracle":
            geom, _ = inputs["mc"]
            f, g, err_f, err_g = (float.fromhex(x) for x in json.loads(raw))
            exact = mean_fg(TrapGeometry(*geom))
            checks.add(key, f, exact.mean_f, err_f)
            checks.add(key, g, exact.mean_g, err_g)
        else:
            row, n_paired = found["row"]
            label = inputs["readout"][1]
            truth = [*table.row(label), table.leakage[STATE_LABELS.index(label)]]
            add_row_check(checks, key, [*row.probabilities, row.leaked],
                          [*row.errors, row.leaked_error], truth, n_paired)
    report = checks.judge(log)
    report.update({"passes": len(per_pass), "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                   "spans_per_pass": len(spans)})
    return {"metrics": metrics, "report": report, "log": log, "spans": spans}
