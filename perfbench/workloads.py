"""The three untraced workloads.

Each one is a closed loop with a single client: the next operation starts
when the previous one has finished, and at most one child process runs at a
time. Inputs come from the workload seed alone. Operations run in cycles
of a fixed mix, so every run measures the same proportions of each kind of
operation whatever the seed; a small pool of inputs per kind is reused
across cycles, so that repeats of one input can be compared byte for byte.
Outputs are checked after the timed phase.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
import time
from itertools import product

import numpy as np

import fixtures
from common import OpLog, ROOT, peak_rss_mb, run_child, run_cli, tail, z_limit

SETUP_REPEATS = 5
LABELS = ("00", "01", "10", "11")
CONFIG = "configs/cesium_reference.cfg"


def measure_setup(child_args: list[str]) -> list[float]:
    """Wall times of fresh interpreters doing the workload's set-up, after one
    untimed repeat that fills the bytecode and file caches."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        seconds, proc = run_child(child_args)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-2000:]}")
        times.append(seconds)
    return times[1:]


IMPORT_CLI = ["-c", "import latticegate.cli"]


def run_cycles(seconds: float, cycle_ops, log: OpLog) -> float:
    """Run whole cycles while the expected end of the next one stays within
    ``seconds``; at least one cycle. Returns the measured wall time."""
    started = time.perf_counter()
    cycles = 0
    while True:
        for key, units, op in cycle_ops(cycles):
            t0 = time.perf_counter()
            try:
                output = op()
            except Exception as exc:  # counted as a failed operation, not fatal
                log.check(key, False, f"raised {exc!r}")
                output = None
            log.add(key, time.perf_counter() - t0, units, output)
        cycles += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return elapsed


def throughput(log: OpLog, pick=lambda key: True) -> float:
    """Units per second with each input timed at the median of its repeats,
    so that one operation stalled by another tenant of the machine does not
    move the figure."""
    times: dict[str, list[float]] = {}
    units: dict[str, float] = {}
    for key, dt, u in zip(log.keys, log.seconds, log.units):
        if pick(key):
            times.setdefault(key, []).append(dt)
            units[key] = u
    work = sum(units[k] * len(v) for k, v in times.items())
    return work / sum(statistics.median(v) * len(v) for v in times.values())


def end_to_end(log: OpLog, setup_times: list[float]) -> tuple[dict, dict]:
    tail_value, tail_pct = tail(log.seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(log.seconds),
        "op_tail_s": tail_value,
        "work_per_s": throughput(log),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {"ops": log.attempted, "tail_percentile": round(tail_pct, 1), "setup_runs_s": setup_times,
              "op_seconds": [[k, round(dt, 4)] for k, dt in zip(log.keys, log.seconds)]}
    return metrics, report


def timed_phase(setup_child: list[str], warm_up, cycle_ops, seconds: float):
    """Set-up repeats, one untimed warm-up, then the timed cycles."""
    setup_times = measure_setup(setup_child)
    warm_up()
    log = OpLog()
    wall = run_cycles(seconds, cycle_ops, log)
    metrics, report = end_to_end(log, setup_times)
    report["measured_wall_s"] = wall
    return log, metrics, report


def _cli_op(argv: list[str]):
    def op() -> bytes | None:
        _, proc = run_cli(argv)
        return proc.stdout if proc.returncode == 0 else None

    return op


# --- statistical checks -------------------------------------------------------


class ZChecks:
    """Collects z-scores per input key and judges them together, with the
    limit set by how many were taken in the run."""

    def __init__(self) -> None:
        self.scores: dict[str, list[float]] = {}

    def add(self, key: str, got: float, truth: float, sigma: float) -> None:
        if sigma > 0:
            self.scores.setdefault(key, []).append(abs(got - truth) / sigma)
        elif abs(got - truth) > 1e-9:
            self.scores.setdefault(key, []).append(math.inf)

    def judge(self, log: OpLog) -> dict:
        count = sum(len(v) for v in self.scores.values())
        limit = z_limit(count)
        worst = 0.0
        beyond3 = 0
        for key, scores in self.scores.items():
            worst = max(worst, *scores)
            beyond3 += sum(1 for z in scores if z > 3.0)
            log.check(key, max(scores) <= limit, f"|z| {max(scores):.2f} above {limit:.2f}")
        return {"z_tests": count, "z_limit": round(limit, 3), "worst_z": round(worst, 3),
                "z_beyond_3sigma": beyond3}


def add_row_check(checks: ZChecks, key: str, got5, err5, truth5, n_paired: float) -> None:
    """Corrected ensemble row against the truth row. The error used is the
    larger of the reported one and the multinomial error of the truth itself,
    so that a rare bin seen a few times too rarely cannot claim a tiny
    error from its own low count."""
    for got, err, truth in zip(got5, err5, truth5):
        truth_sigma = math.sqrt(max(truth * (1.0 - truth), 0.0) / n_paired)
        checks.add(key, got, truth, max(err, truth_sigma))


def check_cli_output(key: str, raw: bytes, log: OpLog, checks: ZChecks) -> None:
    """Check one `kappa`, `budget`, `gate` or `ensemble` document; ``key`` is
    its argv joined by spaces."""
    from latticegate.overlap import TrapGeometry, mean_fg

    try:
        doc = json.loads(raw)
        command = key.split()[0]
        if command == "kappa":
            geom = (doc["eta_perp"], doc["eta_par"])
            f, g = doc["mean_f"], doc["mean_g"]
            ok = fixtures.close(doc["kappa"], -f / (1.0 + g), 1e-7)
            if geom in fixtures.FROZEN_FG:
                ok = ok and fixtures.frozen_ok(geom, f, g)
            else:
                ref = mean_fg(TrapGeometry(*geom))
                ok = ok and fixtures.close(f, ref.mean_f, 1e-8) and fixtures.close(g, ref.mean_g, 1e-8)
            log.check(key, ok, "kappa output off its reference")
        elif command == "budget":
            avg = doc["dipole_average"]
            ok = fixtures.frozen_ok(fixtures.REFERENCE, avg["mean_f"], avg["mean_g"])
            ok = ok and fixtures.close(doc["figure_of_merit"]["kappa"], fixtures.REF_KAPPA, 1e-7)
            log.check(key, ok, "budget dipole average off the frozen values")
        elif command == "gate":
            ok = fixtures.close(doc["figure_of_merit"], fixtures.REF_KAPPA, 1e-7)
            for row in doc["rows"]:
                ok = ok and abs(sum(row["populations"].values()) + row["leaked"] - 1.0) < 1e-6
            ok = ok and 0.0 <= doc["fidelity"]["mean"] <= 1.0
            log.check(key, ok, "gate figure of merit or row norm wrong")
        else:
            truth = [doc["gate_row"][s] for s in LABELS]
            truth.append(1.0 - sum(truth))
            row = doc["corrected_row"]
            got = [row["probabilities"][s] for s in LABELS] + [row["leaked"]]
            err = [row["errors"][s] for s in LABELS] + [row["leaked_error"]]
            n_paired = doc["paired_fraction"] * doc["stages"][0]["n_measured"]
            add_row_check(checks, key, got, err, truth, n_paired)
    except (ValueError, KeyError, TypeError) as exc:
        log.check(key, False, f"unparseable output: {exc!r}")


# --- cli_oneshot --------------------------------------------------------------


def cli_oneshot(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    frozen_domain = sorted(g for g in fixtures.FROZEN_FG if max(g) <= 0.3)
    geoms = [rng.choice(frozen_domain)] + [
        (round(rng.uniform(0.05, 0.3), 4), round(rng.uniform(0.05, 0.3), 4)) for _ in range(2)
    ]
    kappa = [["kappa", "--eta-perp", repr(p), "--eta-par", repr(q)] for p, q in geoms]
    gate = [["gate", "--shift-over-h-hz", f"{rng.uniform(1000.0, 10000.0):.1f}"] for _ in range(3)]
    ensemble = [
        ["ensemble", "--sites", "100000", "--fill-prob", repr(fill),
         "--input", rng.choice(LABELS), "--seed", str(rng.randrange(1, 2**31))]
        for fill in (0.3, 0.6, 0.9)
    ]
    budget = ["budget", "--config", CONFIG]

    # Six invocations per cycle: two fast kinds (kappa, budget) and four of
    # the slower gate/ensemble kind, so the median always falls inside the
    # slower group instead of on the boundary between the two.
    def cycle(c: int):
        for argv in (kappa[c % 3], budget, gate[c % 3], *ensemble):
            yield " ".join(argv), 1.0, _cli_op(argv)

    def warm_up():
        run_cli(["kappa", "--eta-perp", "0.1", "--eta-par", "0.2"])

    log, metrics, report = timed_phase(IMPORT_CLI, warm_up, cycle, seconds)
    checks = ZChecks()
    for key, raw in log.first.items():
        check_cli_output(key, raw, log, checks)
    report.update(checks.judge(log))
    per_command: dict[str, list[float]] = {}
    for key, dt in zip(log.keys, log.seconds):
        per_command.setdefault(key.split()[0], []).append(dt)
    report["cli_p50_s_by_command"] = {k: statistics.median(v) for k, v in sorted(per_command.items())}
    report["cli_p50_s"] = metrics["op_p50_s"]
    report["cli_tail_s"] = metrics["op_tail_s"]
    return {"metrics": metrics, "report": report, "log": log}


# --- map_sweep ----------------------------------------------------------------

MAP_STEPS = 10


def _map_grids(rng: random.Random) -> dict[str, tuple[float, float, float, float]]:
    """Two grids, (perp_min, perp_max, par_min, par_max). Each runs from the
    tested domain 0.05-0.3 into an anisotropic band reaching aspect ratio 20
    (cigar: eta_par up to 1.0; pancake: eta_perp up to 1.0), where the
    angular order rises to 128-256. The two are mirror images, so every
    invocation costs about the same and the latency order statistics do not
    depend on which grid they land on."""
    lo, hi, far = (round(rng.uniform(0.05, 0.055), 4), round(rng.uniform(0.25, 0.3), 4),
                   round(rng.uniform(0.95, 1.0), 4))
    lo2, hi2, far2 = (round(rng.uniform(0.05, 0.055), 4), round(rng.uniform(0.25, 0.3), 4),
                      round(rng.uniform(0.95, 1.0), 4))
    return {"cigar_side": (lo, hi, lo2, far2), "pancake_side": (lo2, far, lo, hi2)}


def _map_argv(grid, steps: int) -> list[str]:
    a, b, c, d = grid
    return ["map", "--perp-min", repr(a), "--perp-max", repr(b), "--perp-steps", str(steps),
            "--par-min", repr(c), "--par-max", repr(d), "--par-steps", str(steps), "--jobs", "1"]


def map_sweep(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    grids = _map_grids(rng)
    spots = {name: [(rng.randrange(MAP_STEPS), rng.randrange(MAP_STEPS)) for _ in range(2)]
             for name in grids}
    argvs = {name: _map_argv(grid, MAP_STEPS) for name, grid in grids.items()}

    def cycle(c: int):
        for name in grids:
            yield name, float(MAP_STEPS * MAP_STEPS), _cli_op(argvs[name])

    def warm_up():
        run_cli(_map_argv((0.1, 0.2, 0.1, 0.2), 2))

    log, metrics, report = timed_phase(IMPORT_CLI, warm_up, cycle, seconds)

    from latticegate.overlap import TrapGeometry, kappa

    converged = 0
    cells = 0
    for name, raw in log.first.items():
        try:
            lines = raw.decode().splitlines()
            ok = "# failed_cells 0" in lines
            rows = list(csv.reader(io.StringIO("\n".join(l for l in lines if not l.startswith("#")))))
            values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
            ok = ok and values.shape == (MAP_STEPS, MAP_STEPS)
            cells += values.size
            converged += int(np.isfinite(values).sum())
            ok = ok and bool(np.isfinite(values).all())
            a, b, c, d = grids[name]
            perp, par = np.linspace(a, b, MAP_STEPS), np.linspace(c, d, MAP_STEPS)
            for i, j in spots[name]:
                ref = kappa(TrapGeometry(float(perp[i]), float(par[j])))
                ok = ok and fixtures.close(values[i, j], ref, 1e-8)
            log.check(name, ok, "map has failed cells or differs from in-process kappa")
        except (ValueError, IndexError) as exc:
            log.check(name, False, f"unparseable output: {exc!r}")
    report["grids"] = grids
    report["map_cells_per_s"] = metrics["work_per_s"]
    report["map_converged_ratio"] = converged / cells if cells else 0.0
    return {"metrics": metrics, "report": report, "log": log}


# --- sampling -----------------------------------------------------------------

SIZES = (10**6, 10**7)
FILLS = (0.3, 0.6, 0.9)
MC_SAMPLES = 10**6


def sampling(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    fill_seeds = {(n, p, s): rng.randrange(2**31) for n, p, s in product(SIZES, FILLS, LABELS)}
    mc_inputs = [((round(rng.uniform(0.05, 0.3), 4), round(rng.uniform(0.05, 0.3), 4)),
                  rng.randrange(2**31)) for _ in range(4)]
    label_order = list(LABELS)
    rng.shuffle(label_order)

    from latticegate.ensemble import STAGES, background_subtract, run_stage, simulate_fill
    from latticegate.gate import STATE_LABELS
    from latticegate.overlap import TrapGeometry, mc_oracle, mean_fg

    table = fixtures.reference_truth_table()
    rows: dict[str, tuple] = {}

    def readout(n: int, p: float, label: str, fill_seed: int):
        def op() -> bytes:
            fill = simulate_fill(n, p, fill_seed)
            stages = [run_stage(fill, table, label, STAGES[0]),
                      run_stage(fill, None, label, STAGES[1]),
                      run_stage(fill, table, label, STAGES[2])]
            row = background_subtract(stages)
            rows[f"readout {n} {p} {label}"] = (row, stages[0].n_paired)
            return json.dumps({
                "stages": [[s.counts.tolist(), s.leaked, s.n_paired, s.n_single] for s in stages],
                "row": [float(x).hex() for x in (*row.probabilities, row.leaked, *row.errors)],
            }).encode()
        return op

    def mc(geom, mc_seed: int):
        def op() -> bytes:
            r = mc_oracle(TrapGeometry(*geom), MC_SAMPLES, mc_seed)
            return json.dumps([float(x).hex() for x in (r.mean_f, r.mean_g, r.err_f, r.err_g)]).encode()
        return op

    def cycle(c: int):
        for i, (n, p) in enumerate(product(SIZES, FILLS)):
            label = label_order[(c + i) % 4]
            yield f"readout {n} {p} {label}", float(n), readout(n, p, label, fill_seeds[n, p, label])
        geom, mc_seed = mc_inputs[c % len(mc_inputs)]
        yield f"mc {geom[0]} {geom[1]} {mc_seed}", float(MC_SAMPLES), mc(geom, mc_seed)

    def warm_up():
        readout(SIZES[-1], 0.6, "10", 1)()
        mc((0.1, 0.2), 1)()

    setup_child = [str(ROOT / "perfbench" / "fixtures.py")]
    log, metrics, report = timed_phase(setup_child, warm_up, cycle, seconds)

    checks = ZChecks()
    for key, raw in log.first.items():
        if key.startswith("readout"):
            row, n_paired = rows[key]
            label = key.split()[3]
            truth = [*table.row(label), table.leakage[STATE_LABELS.index(label)]]
            add_row_check(checks, key, [*row.probabilities, row.leaked],
                          [*row.errors, row.leaked_error], truth, n_paired)
        else:
            _, ep, el, _ = key.split()
            f, g, err_f, err_g = (float.fromhex(x) for x in json.loads(raw))
            exact = mean_fg(TrapGeometry(float(ep), float(el)))
            checks.add(key, f, exact.mean_f, err_f)
            checks.add(key, g, exact.mean_g, err_g)
    report.update(checks.judge(log))

    report["ensemble_sites_per_s"] = throughput(log, lambda key: key.startswith("readout"))
    report["mc_samples_per_s"] = throughput(log, lambda key: key.startswith("mc"))
    return {"metrics": metrics, "report": report, "log": log}


WORKLOADS = {"cli_oneshot": cli_oneshot, "map_sweep": map_sweep, "sampling": sampling}
