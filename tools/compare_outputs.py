"""Compare the CLI output of two source trees on a fixed set of runs.

Each case runs `python -m topo_thermo.cli ...` once against each tree,
with PYTHONPATH set to that tree and one BLAS thread, and compares the
sha256 of stdout, the exit code and stderr. It prints one line per case
and exits 1 if any case differs, 0 if every case is identical.

The cases are every figure preset in CSV and JSON; the configs of the
workloads of bench/run.py at seeds 0 and 1, as written and with
`--precision 3 --format json`; sweeps of every quantity and mode at
`--precision 17` with T as the first, middle and last axis and fixed, on
both boundaries; the polarization (also at `--tau-mag 0.5`), qfi and
`spectrum --eigenvectors` subcommands on both boundaries; a polarization
sweep without --mode, which prints the default-mode note; and the error
exits: a bad config value, a qfi run without -T, a sweep axis that is also
fixed, a --mode without polarization output and a config whose `axes` is a
list of [name, grid] pairs (exit 2), on both boundaries a setting the
subcommand does not take: `spectrum --tau-mag 0.01`, `spectrum --verbose`
and `qfi --tau-mag 0.01` (exit 2), and on both boundaries a spectrum that
overflows float64 and an unwritable --out path (exit 3). The list settings
have their own cases: `qfi -T 0.5 -T 0.1` and `qfi -T 0.1 -T 0.1` (a T list
that is not strictly ascending, exit 2), `polarization --mode
literal,weighted` and `polarization -T 0.1,0.5` (comma-separated flags),
`sweep --quantities polarization --quantities diagnostics` (a repeated
flag), and `figure 2b --w 2` (a flag that figure does not take, never read
as an abbreviation of `--workers`; exit 2). Each output's own dependency
shape has a case on both boundaries at `--precision 17`: a sweep of
qfi_matrix, interferometric_power or diagnostics alone, and of polarization
with the literal, weighted or determinant mode alone. The determinant's
signs at the edges of its range have a case on both boundaries at
`--tau-mag 0`, where even a signed or underflowed zero expectation is
defined: a sweep over N = 2, 3, 601, T = 0, 0.05, 1, 50, 1e6 and
z = 0, 0.2, 0.5 at `--precision 17`.

usage: python tools/compare_outputs.py OLD_SRC NEW_SRC   (e.g. a copy of the parent's src, then src)
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIGURE_IDS = ("1a", "1b", "2a", "2b", "3a", "3b", "3c", "3d")
BOUNDARIES = ("periodic", "open")
EVERY_OUTPUT = (
    "--quantities", "polarization,qfi_matrix,interferometric_power,diagnostics",
    "--mode", "literal", "--mode", "weighted", "--mode", "determinant", "--precision", "17",
)
MODEL = ("--n-cells", "7", "--v", "0.3", "--w", "0.5", "--z", "0.2")
# Axes and fixed parameters of the sweeps, by where T sits.
SWEEPS = {
    "T-first": ("--axis", "T=0,0.05,0.5", "--axis", "z=0.1,0.6", "--v", "0.3", "--w", "0.5",
                "--n-cells", "7"),
    "T-middle": ("--axis", "z=0.1,0.6", "--axis", "T=0,0.05,0.5", "--axis", "v=0.2,0.4",
                 "--w", "0.5", "--n-cells", "6"),
    "T-last": ("--axis", "v=0.2,0.4", "--axis", "T=0.01,0.3", "--w", "0.5", "--z", "0.2",
               "--n-cells", "9"),
    "T-fixed": ("--axis", "N=3,5,8", "--axis", "z=0,0.5", "-T", "0.1", "--v", "0.3",
                "--w", "0.5"),
}
TEMPERATURES = ("-T", "0", "-T", "0.05", "-T", "1")
# Chain sizes, temperatures and hoppings where a determinant can round to a signed zero.
DETERMINANT_EDGES = ("--axis", "N=2,3,601", "--axis", "T=0,0.05,1,50,1e6", "--axis", "z=0,0.2,0.5",
                     "--v", "0.3", "--w", "0.5")
OVERFLOW = ("--n-cells", "4", "--v", "1e308", "--w", "1e308", "--z", "1e308")


def _workloads() -> dict:
    """bench/run.py's WORKLOADS, imported from the file as it stands."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def cases(config_dir: Path) -> list:
    """(name, CLI arguments) of every case; workload configs are written to `config_dir`."""
    found = []
    for figure in FIGURE_IDS:
        for fmt in ("csv", "json"):
            found.append((f"figure-{figure}-{fmt}", ("figure", figure, "--format", fmt)))
    for name, workload in _workloads().items():
        for seed in (0, 1):
            path = config_dir / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(workload.config(seed)))
            found.append((f"{name}-seed{seed}", ("sweep", "--config", str(path))))
            found.append((f"{name}-seed{seed}-p3-json",
                          ("sweep", "--config", str(path), "--precision", "3", "--format", "json")))
    for boundary in BOUNDARIES:
        where = ("--boundary", boundary)
        for name, axes in SWEEPS.items():
            found.append((f"sweep-{name}-{boundary}", ("sweep", *axes, *EVERY_OUTPUT, *where)))
        modes = ("--mode", "literal", "--mode", "weighted", "--mode", "determinant")
        for quantity in ("qfi_matrix", "interferometric_power", "diagnostics"):
            found.append((f"sweep-only-{quantity}-{boundary}",
                          ("sweep", *SWEEPS["T-first"], "--quantities", quantity,
                           "--precision", "17", *where)))
        for mode in ("literal", "weighted", "determinant"):
            found.append((f"sweep-only-{mode}-{boundary}",
                          ("sweep", *SWEEPS["T-first"], "--quantities", "polarization",
                           "--mode", mode, "--precision", "17", *where)))
        found.append((f"determinant-signs-{boundary}",
                      ("sweep", *DETERMINANT_EDGES, "--quantities", "polarization",
                       "--mode", "determinant", "--tau-mag", "0", "--precision", "17", *where)))
        found.append((f"polarization-{boundary}",
                      ("polarization", *MODEL, *TEMPERATURES, *modes, *where)))
        found.append((f"polarization-tau-mag-{boundary}",
                      ("polarization", *MODEL, *TEMPERATURES, "--tau-mag", "0.5", *where)))
        found.append((f"qfi-{boundary}", ("qfi", *MODEL, *TEMPERATURES, *where)))
        found.append((f"spectrum-eigenvectors-{boundary}",
                      ("spectrum", *MODEL, "--eigenvectors", *where)))
        found.append((f"spectrum-tau-mag-exit2-{boundary}",
                      ("spectrum", *MODEL, "--tau-mag", "0.01", *where)))
        found.append((f"spectrum-verbose-exit2-{boundary}",
                      ("spectrum", *MODEL, "--verbose", *where)))
        found.append((f"qfi-tau-mag-exit2-{boundary}",
                      ("qfi", *MODEL, *TEMPERATURES, "--tau-mag", "0.01", *where)))
        found.append((f"overflow-exit3-{boundary}", ("qfi", *OVERFLOW, "-T", "0.1", *where)))
        found.append((f"unwritable-out-exit3-{boundary}",
                      ("qfi", *MODEL, *TEMPERATURES, *where,
                       "--out", str(config_dir / "no" / "dir" / "out.csv"))))
    bad_value = config_dir / "bad-value.json"
    bad_value.write_text(json.dumps({"precision": 0}))
    found.append(("bad-config-value-exit2", ("figure", "2b", "--config", str(bad_value))))
    pair_axes = config_dir / "pair-axes.json"
    pair_axes.write_text(json.dumps({"axes": [["T", [0.1, 0.5]], ["z", [0.2]]],
                                     "quantities": "diagnostics", "n_cells": 7, "v": 0.3,
                                     "w": 0.5}))
    found.append(("axes-pair-list-exit2", ("sweep", "--config", str(pair_axes))))
    found.append(("sweep-default-mode-note",
                  ("sweep", *MODEL, "--axis", "T=0.02,0.1", "--quantities", "polarization")))
    found.append(("qfi-no-temperature-exit2", ("qfi", *MODEL)))
    found.append(("swept-and-fixed-exit2",
                  ("sweep", *MODEL, "--axis", "T=0.1,0.2", "-T", "0.5",
                   "--quantities", "diagnostics")))
    found.append(("qfi-descending-T-exit2", ("qfi", *MODEL, "-T", "0.5", "-T", "0.1")))
    found.append(("qfi-repeated-T-exit2", ("qfi", *MODEL, "-T", "0.1", "-T", "0.1")))
    found.append(("polarization-comma-modes",
                  ("polarization", *MODEL, "-T", "0.1", "--mode", "literal,weighted")))
    found.append(("polarization-comma-T", ("polarization", *MODEL, "-T", "0.1,0.5")))
    found.append(("sweep-repeated-quantities",
                  ("sweep", *MODEL, "--axis", "T=0.02,0.1", "--quantities", "polarization",
                   "--quantities", "diagnostics")))
    found.append(("figure-w-exit2", ("figure", "2b", "--w", "2")))
    found.append(("modes-without-polarization-exit2",
                  ("sweep", *MODEL, "--axis", "T=0.1,0.2", "--quantities", "qfi_matrix",
                   "--mode", "literal")))
    return found


def run(src: Path, args) -> tuple:
    """(stdout sha256, exit code, stderr) of one CLI run against the tree `src`."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONHOME"}
    env["PYTHONPATH"] = str(src)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    done = subprocess.run(
        [sys.executable, "-m", "topo_thermo.cli", *args], env=env, capture_output=True, check=False
    )
    return hashlib.sha256(done.stdout).hexdigest(), done.returncode, done.stderr


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.rsplit("usage: ", 1)[1].strip(), file=sys.stderr)
        return 2
    trees = [Path(path).resolve() for path in argv]
    for tree in trees:
        if not (tree / "topo_thermo" / "cli.py").is_file():
            print(f"error: no topo_thermo sources under {tree}", file=sys.stderr)
            return 2
    differing = 0
    with tempfile.TemporaryDirectory() as config_dir:
        found = cases(Path(config_dir))
        for name, args in found:
            old, new = (run(tree, args) for tree in trees)
            what = [part for part, a, b in zip(("stdout", "exit", "stderr"), old, new) if a != b]
            differing += bool(what)
            verdict = "DIFF " + ",".join(what) if what else "same"
            print(f"{verdict:<10} {name:<32} exit {new[1]}  sha256 {new[0][:16]}", flush=True)
    print(f"{len(found) - differing} of {len(found)} cases identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
