#!/usr/bin/env python3
"""Benchmark of `topo-thermo sweep` on four seeded workloads.

    python3 bench/run.py --workload fig3a_qfi --seed 0 --seconds 20 --trace 0

Paths resolve against the checkout that holds this file; the package is
run from its src/ tree, so nothing needs installing. With --trace 0 each
timed sweep is a `python -m topo_thermo.cli sweep --config <generated>`
child process and the end-to-end metrics are printed. With --trace 1 the
same command runs in-process through `topo_thermo.cli.cli_main` under the
timing wrappers of bench/spans.py and the per-layer metrics are printed.
Both modes check the output. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. bench/README.md explains
the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS reads its thread count once, when numpy is first imported; pinned to
# 1 here and in every child (see README: oversubscription on 2 cores).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 120.0
CHECK_PARALLELISM = 2
REFERENCE_SAMPLE = 6

T_RANGE = (0.01, 1.0)
HOPPING_RANGE = (0.0, 1.0)
FIGURE_POINTS = 101
RING_V = (0.1, 0.3, 0.5, 0.7)
RING_T = (0.02, 0.05, 0.1, 0.2, 0.5)
ALL_QUANTITIES = ("polarization", "qfi_matrix", "interferometric_power", "diagnostics")


@dataclass(frozen=True)
class Workload:
    """One sweep config family; seed 0 gives the listed grids exactly."""

    name: str
    axes: tuple  # (axis name, low, high, seed-0 grid), first axis slowest
    fixed: dict
    boundary: str
    quantities: tuple
    modes: tuple = ()
    fmt: str = "csv"
    preset: tuple | None = None  # `figure` arguments that seed 0 reproduces byte for byte

    def grids(self, seed: int) -> dict:
        """Axis grids for a seed: same counts and ranges, sorted and distinct."""
        if seed == 0:
            return {name: list(grid) for name, _, _, grid in self.axes}
        rng = random.Random(f"{self.name}:{seed}")
        grids = {}
        for name, low, high, grid in self.axes:
            values = set()
            while len(values) < len(grid):
                values.add(rng.uniform(low, high))
            grids[name] = sorted(values)
        return grids

    def points(self) -> int:
        return math.prod(len(grid) for _, _, _, grid in self.axes)

    def rows(self) -> int:
        return self.points() * (len(self.modes) if "polarization" in self.quantities else 1)

    def config(self, seed: int) -> dict:
        config = dict(self.fixed, axes=self.grids(seed), boundary=self.boundary,
                      quantities=list(self.quantities), format=self.fmt, workers=1)
        if self.modes:
            config["modes"] = list(self.modes)
        return config


def _figure_grid(low_high):
    return tuple(float(x) for x in np.linspace(*low_high, FIGURE_POINTS))


# Presets 3a and 1a share this grid and model.
FIGURE_AXES = (("T", *T_RANGE, _figure_grid(T_RANGE)),
               ("z", *HOPPING_RANGE, _figure_grid(HOPPING_RANGE)))
FIGURE_FIXED = {"n_cells": 50, "v": 0.3, "w": 0.5}


def _chain(name, boundary):
    return Workload(
        name=name,
        axes=(("v", 0.1, 0.7, RING_V), ("T", 0.02, 0.5, RING_T)),
        fixed={"n_cells": 400, "w": 0.5, "z": 0.2},
        boundary=boundary,
        quantities=ALL_QUANTITIES,
        modes=("literal", "weighted", "determinant"),
    )


# README.md says why each workload is here and which layers it stresses.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig3a_qfi",
            axes=FIGURE_AXES,
            fixed=FIGURE_FIXED,
            boundary="periodic",
            quantities=("qfi_matrix", "interferometric_power"),
            preset=("3a",),
        ),
        Workload(
            name="fig1a_det",
            axes=FIGURE_AXES,
            fixed=FIGURE_FIXED,
            boundary="periodic",
            quantities=("polarization",),
            modes=("determinant",),
            fmt="json",
            preset=("1a", "--format", "json"),
        ),
        _chain("ring_n400", "periodic"),
        _chain("open_n400", "open"),
    )
}


# --------------------------------------------------------------------- children

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Child:
    """One child process; peak RSS comes from os.wait4 on that pid alone."""

    def __init__(self, argv, label):
        self.argv = argv
        self.stderr_path = WORK / f"{label}.stderr"
        self.started = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=err)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()

    def wait(self):
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.timer.cancel()
        self.wall_s = time.perf_counter() - self.started
        self.exit_code = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait()

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-400:].strip()


def run_children(jobs):
    """Run (argv, label) jobs, CHECK_PARALLELISM at a time; returns Children."""
    done = []
    for i in range(0, len(jobs), CHECK_PARALLELISM):
        batch = []
        try:
            for argv, label in jobs[i:i + CHECK_PARALLELISM]:
                batch.append(Child(argv, label))
            done.extend(child.wait() for child in batch)
        finally:
            for child in batch:
                child.kill()
    return done


def cli_argv(*args):
    return [sys.executable, "-m", "topo_thermo.cli", *args]


def sweep_args(config_path, out_path):
    return ["sweep", "--config", str(config_path), "--workers", "1", "--out", str(out_path)]


# ---------------------------------------------------------------------- checks

def parse_output(data: bytes, fmt: str) -> list[dict]:
    """Typed rows from CSV or JSON sweep output."""
    if fmt == "json":
        return json.loads(data)
    rows = []
    for raw in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        rows.append({key: _csv_value(text) for key, text in raw.items()})
    return rows


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def point_key(row):
    return (row["T"], row["v"], row["w"], row["z"], row["N"])


@dataclass
class Tally:
    """Grid points attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, points, failed, problem=None):
        self.attempted += points
        self.failed += failed
        if problem:
            self.problems.append(problem)


class OutputSet:
    """Outputs of repeated runs of one config: all must be byte-identical."""

    def __init__(self, workload: Workload, tally: Tally):
        self.workload = workload
        self.tally = tally
        self.first = None
        self.rows = None

    def add(self, data: bytes | None, label: str):
        wl = self.workload
        if data is None:
            self.tally.record(wl.points(), wl.points(), f"{label}: no output")
            return
        if self.first is None:
            self.first = data
            self.rows = parse_output(data, wl.fmt)
        elif data != self.first:
            self.tally.record(wl.points(), wl.points(),
                              f"{label}: output bytes differ from the first run "
                              f"(sha256 {hashlib.sha256(data).hexdigest()[:12]})")
            return
        if len(self.rows) != wl.rows():
            self.tally.record(wl.points(), wl.points(),
                              f"{label}: {len(self.rows)} rows, grid needs {wl.rows()}")
            return
        # The sweep exits 0 even when every row errored, so count the cells.
        errored = {point_key(r) for r in self.rows if r.get("error")}
        self.tally.record(wl.points(), len(errored),
                          f"{label}: {len(errored)} points with an error cell" if errored else None)


def reference_check(rows, seed: int, tally: Tally):
    from reference import check_rows

    rng = random.Random(f"reference:{seed}")
    indices = sorted(rng.sample(range(len(rows)), min(REFERENCE_SAMPLE, len(rows))))
    failures = check_rows(rows, indices)
    bad_points = {point_key(rows[i]) for i in failures}
    tally.failed += len(bad_points)
    for index, problems in failures.items():
        tally.problems.append(f"reference mismatch at row {index}: {'; '.join(problems)}")
    return len(indices)


def preset_checks(workload: Workload, seed: int, own_output: bytes | None, tally: Tally):
    """Seed-0 fig3a_qfi / fig1a_det sweeps must equal `figure 3a` / `figure 1a --format json`."""
    jobs, pairs = [], []
    for wl in WORKLOADS.values():
        if wl.preset is None:
            continue
        figure_out = WORK / f"figure-{wl.preset[0]}.out"
        jobs.append((cli_argv("figure", *wl.preset, "--workers", "1", "--out", str(figure_out)),
                     f"figure-{wl.preset[0]}"))
        if wl is workload and seed == 0 and own_output is not None:
            sweep_out = own_output
        else:
            config_path = WORK / f"{wl.name}-seed0.json"
            config_path.write_text(json.dumps(wl.config(0)))
            sweep_out = WORK / f"{wl.name}-seed0.out"
            jobs.append((cli_argv(*sweep_args(config_path, sweep_out)), f"{wl.name}-seed0"))
        pairs.append((wl, figure_out, sweep_out))
    children = {child.argv[-1]: child for child in run_children(jobs)}
    for wl, figure_out, sweep_out in pairs:
        outputs = []
        for source in (figure_out, sweep_out):
            if isinstance(source, bytes):
                outputs.append(source)
                continue
            child = children[str(source)]
            outputs.append(source.read_bytes() if child.exit_code == 0 and source.exists() else None)
            if child.exit_code != 0:
                tally.problems.append(f"{source.name}: exit {child.exit_code}: {child.stderr_tail()}")
        identical = outputs[0] is not None and outputs[0] == outputs[1]
        tally.record(wl.points(), 0 if identical else wl.points(),
                     None if identical else f"preset check: seed-0 {wl.name} differs from "
                                            f"`figure {' '.join(wl.preset)}`")


# --------------------------------------------------------------------- metrics

def describe(values):
    """Median, quartiles and extremes, with the sample count."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"median of {len(values)}, q1 {q1:.4g}, q3 {q3:.4g}, "
            f"min {values[0]:.4g}, max {values[-1]:.4g}")


def measure_end_to_end(workload, config_path, seconds, tally):
    """Timed CLI children; returns (metrics, notes, OutputSet)."""
    out_path = WORK / f"{workload.name}.out"

    def import_time():
        child = run_children([([sys.executable, "-c", "import topo_thermo.cli"], "setup")])[0]
        if child.exit_code != 0:
            raise SystemExit(f"importing topo_thermo.cli failed: {child.stderr_tail()}")
        return child.wall_s

    import_time()  # warms the caches, untimed
    outputs = OutputSet(workload, tally)
    runs, setup_s = [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        out_path.unlink(missing_ok=True)
        child = run_children([(cli_argv(*sweep_args(config_path, out_path)), "sweep")])[0]
        runs.append(child)
        label = f"run {len(runs)}"
        if child.exit_code != 0:
            tally.problems.append(f"{label}: exit {child.exit_code}: {child.stderr_tail()}")
            outputs.add(None, label)
        else:
            outputs.add(out_path.read_bytes(), label)
        # Spread over the run like the sweeps, so a burst of load on a
        # shared host does not land on every import sample at once.
        setup_s.append(import_time())

    wall = [child.wall_s for child in runs]
    rss = [child.peak_rss_mb for child in runs]
    points = workload.points()
    rate = [points / w for w in wall]
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "points_per_s": (statistics.median(rate), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = {
        "wall_s": describe(wall),
        "points_per_s": describe(rate),
        "setup_s": describe(setup_s),
        "peak_rss_mb": describe(rss),
    }
    return metrics, notes, outputs


def measure_layers(workload, config_path, seconds, tally):
    """Alternating untraced and traced in-process runs of cli_main; same return."""
    sys.path.insert(0, str(SRC))
    import topo_thermo.cli as cli
    from spans import LAYERS, Tracer

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported topo_thermo from {cli.__file__}, not {SRC}")
    out_path = WORK / f"{workload.name}.out"
    argv = sweep_args(config_path, out_path)
    outputs = OutputSet(workload, tally)
    tracer = Tracer()
    traced_main = tracer.wrap("cli", cli.cli_main)

    def run(traced, label):
        out_path.unlink(missing_ok=True)
        tracer.reset()
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            code = (traced_main if traced else cli.cli_main)(argv)
        finally:
            elapsed = time.perf_counter() - started
            tracer.uninstall()
        if code != 0:
            tally.problems.append(f"{label}: cli_main returned {code}")
        outputs.add(out_path.read_bytes() if code == 0 else None, label)
        return elapsed

    run(False, "warm-up")
    plain, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run(False, f"untraced run {len(plain) + 1}"))
        traced.append(run(True, f"traced run {len(traced) + 1}"))
        summaries.append(tracer.summary())
    (WORK / f"trace-{workload.name}.json").write_text(json.dumps(tracer.dump()))

    def median_of(fn):
        return statistics.median(fn(s) for s in summaries)

    last = summaries[-1]
    metrics, notes = {}, {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (last["calls"][name], "count")
        metrics[f"{name}.busy_s"] = (median_of(lambda s: s["busy"][name]), "s")
        if last["calls"][name] == 0:
            notes[f"{name}.calls"] = "never called in this workload (or the seam moved)"
    metrics["io.render.busy_s"] = (median_of(lambda s: s["busy"]["io.render"]), "s")
    metrics["io.render.bytes"] = (last["counters"].get("io.render.bytes", 0), "bytes")
    metrics["io.write_text.busy_s"] = (median_of(lambda s: s["busy"]["io.write_text"]), "s")
    metrics["sweep.run_sweep.busy_s"] = (median_of(lambda s: s["busy"]["sweep.run_sweep"]), "s")
    metrics["sweep.self_s"] = (median_of(
        lambda s: s["busy"]["sweep.run_sweep"] - s["covered"]["sweep.run_sweep"]), "s")
    layer_busy = {name: last["busy"][name] for name in LAYERS}
    notes["sweep.run_sweep.busy_s"] = (
        f"last traced run: layers {sum(layer_busy.values()):.4f} s + self "
        f"{last['busy']['sweep.run_sweep'] - sum(layer_busy.values()):.4f} s; "
        f"largest layer {max(layer_busy, key=layer_busy.get)}")
    rows = outputs.rows or []
    points = last["counters"].get("sweep.points", 0)
    spectra = len({(r["v"], r["w"], r["z"], r["N"], r["boundary"]) for r in rows})
    metrics["sweep.points"] = (points, "count")
    metrics["sweep.spectra"] = (spectra, "count")
    metrics["sweep.spectrum_reuse"] = (points / spectra if spectra else 0.0, "ratio")
    metrics["sweep.error_rows"] = (sum(1 for r in rows if r.get("error")), "count")
    metrics["sweep.undefined_p_rows"] = (sum(1 for r in rows if r.get("P_defined") is False), "count")
    metrics["cli.self_s"] = (median_of(lambda s: s["busy"]["cli"] - s["covered"]["cli"]), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    notes["trace.overhead_s"] = (f"median traced cli_main {statistics.median(traced):.4f} s minus "
                                 f"untraced {statistics.median(plain):.4f} s over {len(traced)} pairs")
    if tracer.missing:
        notes["seams"] = "; ".join(tracer.missing)
    return metrics, notes, outputs


# ------------------------------------------------------------------------ main

def machine_info() -> str:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ",".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name', '?')} {blas.get('version', '?')} "
            f"threads={threads}")


def report(metrics, notes, tally, checked) -> list[str]:
    """Human-readable metric lines, then the JSON summary as the last line."""
    lines = []
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    if "seams" in notes:
        lines.append(f"note: {notes['seams']}")
    lines.append(f"failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
                 f"({tally.failed} of {tally.attempted} points; {checked} rows reference-checked)")
    lines.extend(f"FAIL {problem}" for problem in tally.problems)
    lines.append(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "topo_thermo" / "cli.py").is_file():
        print(f"error: no topo_thermo sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    config_path = WORK / f"{workload.name}.json"
    config_path.write_text(json.dumps(workload.config(args.seed)))

    print(f"# machine: {machine_info()}")
    print(f"# workload {workload.name} seed {args.seed}: {workload.points()} points, "
          f"{workload.rows()} rows, {workload.fmt}")
    tally = Tally()
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, notes, outputs = measure(workload, config_path, args.seconds, tally)
    checked = reference_check(outputs.rows, args.seed, tally) if outputs.rows else 0
    preset_checks(workload, args.seed, outputs.first if args.seed == 0 else None, tally)

    for line in report(metrics, notes, tally, checked):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
